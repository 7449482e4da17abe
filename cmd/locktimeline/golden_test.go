package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/journal"
)

// checkGolden compares got with testdata/name byte for byte. To accept
// an intended output change, write got over the file once and review
// the diff.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("%s: line %d differs\n got: %s\nwant: %s", name, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%s: got %d lines, want %d", name, len(gl), len(wl))
}

// TestGoldenHistory pins history's text and -o json output on the
// skewed failover fixture.
func TestGoldenHistory(t *testing.T) {
	leaderDir, learnerDir := skewedFixture(t)
	procs := []string{"leader=" + leaderDir, "learner=" + learnerDir}
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"skewed-history.txt", procs},
		{"skewed-history.json", append([]string{"-o", "json"}, procs...)},
	} {
		var out bytes.Buffer
		if err := cmdHistory(&out, tc.args); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		checkGolden(t, tc.name, out.Bytes())
	}
}

// TestGoldenFixture pins the segments, verify, waitgraph, history and
// chrome output on the two-process fixture.
func TestGoldenFixture(t *testing.T) {
	serverDir, clientDir := fixture(t)
	procs := []string{"server=" + serverDir, "client=" + clientDir}
	run := func(name string, cmd func(*bytes.Buffer) error) {
		t.Helper()
		var out bytes.Buffer
		if err := cmd(&out); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkGolden(t, name, out.Bytes())
	}
	run("fixture-segments.txt", func(b *bytes.Buffer) error { return cmdSegments(b, []string{serverDir}) })
	run("fixture-verify.txt", func(b *bytes.Buffer) error { _, err := cmdVerify(b, procs); return err })
	run("fixture-verify.json", func(b *bytes.Buffer) error {
		_, err := cmdVerify(b, append([]string{"-json"}, procs...))
		return err
	})
	run("fixture-waitgraph.json", func(b *bytes.Buffer) error {
		return cmdWaitGraph(b, append([]string{"-at", "150"}, procs...))
	})
	run("fixture-waitgraph.dot", func(b *bytes.Buffer) error {
		return cmdWaitGraph(b, append([]string{"-at", "150", "-dot"}, procs...))
	})
	run("fixture.chrome.json", func(b *bytes.Buffer) error {
		return cmdHistory(b, append([]string{"-o", "chrome"}, procs...))
	})
	run("fixture-history-server.txt", func(b *bytes.Buffer) error { return cmdHistory(b, []string{serverDir}) })
	run("fixture-history.txt", func(b *bytes.Buffer) error { return cmdHistory(b, procs) })
}

// TestGoldenWaitGraphDeadlock pins an offline ABBA replay: the cycle
// closes at the 13 ns record, and that is the instant the report
// carries, whenever the replay runs.
func TestGoldenWaitGraphDeadlock(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "abba")
	writeJournal(t, dir, []journal.Record{
		{Kind: journal.KindAcquire, Origin: journal.OriginNative, AtNs: 10, Lock: 1, Agent: 1},
		{Kind: journal.KindAcquire, Origin: journal.OriginNative, AtNs: 11, Lock: 2, Agent: 2},
		{Kind: journal.KindWait, Origin: journal.OriginNative, AtNs: 12, Lock: 2, Agent: 1},
		{Kind: journal.KindWait, Origin: journal.OriginNative, AtNs: 13, Lock: 1, Agent: 2},
	}, map[uint32]string{1: "A", 2: "B"}, map[uint32]string{1: "t1", 2: "t2"})
	var out bytes.Buffer
	if err := cmdWaitGraph(&out, []string{dir}); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "abba-waitgraph.json", out.Bytes())
}
