package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

// runMain runs main with args as a fresh process would — a new flag set
// and an empty default telemetry registry — and returns what it wrote to
// stdout.
func runMain(t *testing.T, args ...string) []byte {
	t.Helper()
	out, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	oldArgs, oldFlags, oldStdout, oldReg := os.Args, flag.CommandLine, os.Stdout, telemetry.Default
	defer func() {
		os.Args, flag.CommandLine, os.Stdout, telemetry.Default = oldArgs, oldFlags, oldStdout, oldReg
	}()
	os.Args = append([]string{"locktrace"}, args...)
	flag.CommandLine = flag.NewFlagSet("locktrace", flag.ExitOnError)
	telemetry.Default = telemetry.NewRegistry()
	os.Stdout = out
	main()
	got, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// checkGolden compares got with testdata/name byte for byte.
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

// TestGoldenTimeline pins the default timeline and -json output, and the
// timeline of a faulted run, whose fault, watchdog and possession-recovery
// lines carry detail strings the default run has none of.
func TestGoldenTimeline(t *testing.T) {
	checkGolden(t, "default.txt", runMain(t))
	checkGolden(t, "default.json", runMain(t, "-json"))
	checkGolden(t, "chaos.txt", runMain(t, "-faults", "stall:every=3:us=2500,crash:every=9", "-degrade"))
}
