package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/hlc"
	"repro/internal/journal"
)

// mainArgsEnv, when set, makes the test binary run main with its
// newline-separated arguments instead of the tests, so a test can see
// the exit codes only main sets.
const mainArgsEnv = "LOCKTIMELINE_MAIN_ARGS"

func TestMain(m *testing.M) {
	if args := os.Getenv(mainArgsEnv); args != "" {
		os.Args = append([]string{"locktimeline"}, strings.Split(args, "\n")...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// writeJournal materializes a fixed per-process history on disk.
func writeJournal(t *testing.T, dir string, recs []journal.Record, locks, agents map[uint32]string) {
	t.Helper()
	// Synthetic wall instants: HLC stamping off so the fixture merges
	// by its scripted timeline, like a pre-HLC journal would.
	j, err := journal.Open(journal.Config{Dir: dir, FlushEvery: time.Hour, DisableHLC: true})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	lockIDs := map[uint32]uint32{}
	for id, name := range locks {
		lockIDs[id] = j.InternLock(name)
	}
	agentIDs := map[uint32]uint32{}
	for id, name := range agents {
		agentIDs[id] = j.InternAgent(name)
	}
	for _, r := range recs {
		r.Lock = lockIDs[r.Lock]
		r.Agent = agentIDs[r.Agent]
		j.Append(r)
	}
	j.Flush()
}

// fixture writes a two-process history: the server grants orders to w1
// (token 3) then w2 (token 4, still held at end); the client sees its
// own half of w1's acquisition via the shared trace id.
func fixture(t *testing.T) (serverDir, clientDir string) {
	base := t.TempDir()
	serverDir = filepath.Join(base, "server")
	clientDir = filepath.Join(base, "client")
	const trace = 0xbeef
	writeJournal(t, serverDir, []journal.Record{
		{Kind: journal.KindWait, Origin: journal.OriginLockd, AtNs: 100, Lock: 1, Agent: 1, Trace: trace},
		{Kind: journal.KindAcquire, Origin: journal.OriginLockd, AtNs: 200, Lock: 1, Agent: 1, Token: 3, Trace: trace, DurNs: 100},
		{Kind: journal.KindRelease, Origin: journal.OriginLockd, AtNs: 400, Lock: 1, Agent: 1, Token: 3, Trace: trace, DurNs: 200},
		{Kind: journal.KindAcquire, Origin: journal.OriginLockd, AtNs: 500, Lock: 1, Agent: 2, Token: 4},
	}, map[uint32]string{1: "orders"}, map[uint32]string{1: "w1", 2: "w2"})
	writeJournal(t, clientDir, []journal.Record{
		{Kind: journal.KindWait, Origin: journal.OriginClient, AtNs: 90, Lock: 1, Agent: 1, Trace: trace},
		{Kind: journal.KindAcquire, Origin: journal.OriginClient, AtNs: 210, Lock: 1, Agent: 1, Token: 3, Trace: trace, DurNs: 120},
		{Kind: journal.KindRelease, Origin: journal.OriginClient, AtNs: 410, Lock: 1, Agent: 1, Token: 3, Trace: trace, DurNs: 200},
	}, map[uint32]string{1: "orders"}, map[uint32]string{1: "w1"})
	return serverDir, clientDir
}

// tokenRegressionJournal writes a journal whose second grant on orders
// reuses the first grant's fencing token.
func tokenRegressionJournal(t *testing.T) string {
	dir := t.TempDir()
	writeJournal(t, dir, []journal.Record{
		{Kind: journal.KindAcquire, AtNs: 100, Lock: 1, Agent: 1, Token: 9},
		{Kind: journal.KindRelease, AtNs: 200, Lock: 1, Agent: 1, Token: 9},
		{Kind: journal.KindAcquire, AtNs: 300, Lock: 1, Agent: 2, Token: 9}, // not above 9
	}, map[uint32]string{1: "orders"}, map[uint32]string{1: "a", 2: "b"})
	return dir
}

// skewedFixture scripts a leader journal running 50ms fast and a
// learner journal running 50ms slow through one grant-release-grant
// failover sequence, with the HLC hand-offs log shipping performs.
// Scripted wall sources make every stamp — and so every rendering —
// identical run over run.
func skewedFixture(t *testing.T) (leaderDir, learnerDir string) {
	t.Helper()
	base := t.TempDir()
	leaderDir = filepath.Join(base, "leader")
	learnerDir = filepath.Join(base, "learner")

	trueNow := int64(1_700_000_000_000_000_000)
	const skew = 50 * int64(time.Millisecond)
	leaderC := hlc.NewClockAt(func() int64 { return trueNow + skew })
	learnerC := hlc.NewClockAt(func() int64 { return trueNow - skew })

	leader, err := journal.Open(journal.Config{Dir: leaderDir, FlushEvery: time.Hour, Clock: leaderC})
	if err != nil {
		t.Fatal(err)
	}
	learner, err := journal.Open(journal.Config{Dir: learnerDir, FlushEvery: time.Hour, Clock: learnerC})
	if err != nil {
		t.Fatal(err)
	}

	step := func(kind journal.Kind, token uint64, agent string) {
		trueNow += 10 * int64(time.Millisecond)
		leader.Append(journal.Record{
			Kind: kind, Origin: journal.OriginLockd, Token: token,
			AtNs: leaderC.PhysNow(), Lock: leader.InternLock("orders"), Agent: leader.InternAgent(agent),
		})
		learnerC.Update(leaderC.Now()) // log shipping carries the leader's HLC
	}
	step(journal.KindAcquire, 1, "alice")
	step(journal.KindRelease, 1, "alice")

	// Failover: the learner grants token 2, wall-stamped in the past.
	trueNow += 10 * int64(time.Millisecond)
	learner.Append(journal.Record{
		Kind: journal.KindAcquire, Origin: journal.OriginLockd, Token: 2,
		AtNs: learnerC.PhysNow(), Lock: learner.InternLock("orders"), Agent: learner.InternAgent("bob"),
		DurNs: 5 * int64(time.Millisecond), // waited through the election
	})

	leader.Flush()
	leader.Close()
	learner.Flush()
	learner.Close()
	return leaderDir, learnerDir
}

func TestHistoryOrdersCausally(t *testing.T) {
	leaderDir, learnerDir := skewedFixture(t)
	args := []string{"leader=" + leaderDir, "learner=" + learnerDir}

	// Wall order lies: the failover grant renders before the release.
	var wall bytes.Buffer
	if err := cmdHistory(&wall, append([]string{"-order", "wall"}, args...)); err != nil {
		t.Fatal(err)
	}
	wallOut := wall.String()
	if strings.Index(wallOut, "token=2") > strings.Index(wallOut, "release") {
		t.Fatalf("wall order shows no inversion:\n%s", wallOut)
	}

	// HLC order (the default) puts it right — and renders identically
	// on every run.
	var a, b bytes.Buffer
	if err := cmdHistory(&a, args); err != nil {
		t.Fatal(err)
	}
	if err := cmdHistory(&b, args); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() || a.Len() == 0 {
		t.Fatal("history rendering not deterministic")
	}
	if strings.Index(a.String(), "token=2") < strings.Index(a.String(), "release") {
		t.Fatalf("HLC order still inverted:\n%s", a.String())
	}

	// -lock filter and -n limit.
	var filtered bytes.Buffer
	if err := cmdHistory(&filtered, append([]string{"-lock", "orders", "-n", "1"}, args...)); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(filtered.String()), "\n")
	if len(lines) != 1 || !strings.Contains(lines[0], "token=2") {
		t.Fatalf("history -n 1 = %q", filtered.String())
	}
}

func TestHistoryChromeSkewCorrect(t *testing.T) {
	leaderDir, learnerDir := skewedFixture(t)
	var out bytes.Buffer
	err := cmdHistory(&out, []string{"-o", "chrome", "-skew-correct",
		"leader=" + leaderDir, "learner=" + learnerDir})
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph  string  `json:"ph"`
			Pid int     `json:"pid"`
			Ts  float64 `json:"ts"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("chrome JSON: %v\n%s", err, out.String())
	}
	pids := map[int]bool{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			pids[ev.Pid] = true
		}
	}
	if len(pids) != 2 {
		t.Fatalf("span pids = %v, want one lane per process", pids)
	}
}

func TestHoldersAfterFailover(t *testing.T) {
	leaderDir, learnerDir := skewedFixture(t)
	var out bytes.Buffer
	err := cmdHolders(&out, []string{"-json", "leader=" + leaderDir, "learner=" + learnerDir})
	if err != nil {
		t.Fatal(err)
	}
	var cut journal.Cut
	if err := json.Unmarshal(out.Bytes(), &cut); err != nil {
		t.Fatalf("holders JSON: %v\n%s", err, out.String())
	}
	if len(cut.Holds) != 1 || cut.Holds[0].Token != 2 || !strings.Contains(cut.Holds[0].Actor, "bob") {
		t.Fatalf("holders = %+v, want bob holding token 2", cut.Holds)
	}
}

func TestHandoffChain(t *testing.T) {
	leaderDir, learnerDir := skewedFixture(t)
	var out bytes.Buffer
	err := cmdHandoffs(&out, []string{"-lock", "orders", "-json",
		"leader=" + leaderDir, "learner=" + learnerDir})
	if err != nil {
		t.Fatal(err)
	}
	var hands []journal.Handoff
	if err := json.Unmarshal(out.Bytes(), &hands); err != nil {
		t.Fatalf("handoffs JSON: %v\n%s", err, out.String())
	}
	if len(hands) != 1 || !strings.Contains(hands[0].From, "alice") || !strings.Contains(hands[0].To, "bob") {
		t.Fatalf("handoffs = %+v, want one alice->bob transfer", hands)
	}
	if err := cmdHandoffs(&out, []string{"leader=" + leaderDir}); err == nil {
		t.Fatal("handoffs without -lock accepted")
	}
}

func TestSkewEstimates(t *testing.T) {
	leaderDir, learnerDir := skewedFixture(t)
	var out bytes.Buffer
	err := cmdSkew(&out, []string{"-json", "leader=" + leaderDir, "learner=" + learnerDir})
	if err != nil {
		t.Fatal(err)
	}
	var offs map[string]int64
	if err := json.Unmarshal(out.Bytes(), &offs); err != nil {
		t.Fatalf("skew JSON: %v\n%s", err, out.String())
	}
	// The learner was dragged forward by the +50ms leader (about 90ms
	// at the grant, modulo HLC packing granularity); the leader's own
	// clock is the fastest, so its offset is zero.
	if offs["leader"] != 0 {
		t.Fatalf("leader offset = %d, want 0", offs["leader"])
	}
	if offs["learner"] < 85*int64(time.Millisecond) {
		t.Fatalf("learner offset = %v, want about 90ms", time.Duration(offs["learner"]))
	}
}

func TestHistoryFilters(t *testing.T) {
	serverDir, _ := fixture(t)
	var out bytes.Buffer
	if err := cmdHistory(&out, []string{"-kind", "acquire", serverDir}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("history -kind acquire: %d lines\n%s", len(lines), out.String())
	}
	if !strings.Contains(lines[0], "token=3") || !strings.Contains(lines[1], "token=4") {
		t.Fatalf("history lines missing tokens:\n%s", out.String())
	}

	out.Reset()
	if err := cmdHistory(&out, []string{"-agent", "w2", "-o", "json", serverDir}); err != nil {
		t.Fatal(err)
	}
	var docs []journal.MergedEntry
	if err := json.Unmarshal(out.Bytes(), &docs); err != nil {
		t.Fatalf("history -o json: %v\n%s", err, out.String())
	}
	if len(docs) != 1 || docs[0].AgentName != "w2" {
		t.Fatalf("history -agent w2 = %+v", docs)
	}

	if err := cmdHistory(&out, []string{"-kind", "bogus", serverDir}); err == nil {
		t.Fatal("bogus kind accepted")
	}
	if err := cmdHistory(&out, []string{t.TempDir()}); err == nil {
		t.Fatal("empty dir accepted")
	}
}

func TestHistoryInterleavesProcs(t *testing.T) {
	serverDir, clientDir := fixture(t)
	var out bytes.Buffer
	if err := cmdHistory(&out, []string{"server=" + serverDir, "client=" + clientDir}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 7 {
		t.Fatalf("history: %d lines, want 7\n%s", len(lines), out.String())
	}
	// The client's wait at 90ns leads; the server's grant at 500ns ends.
	if !strings.Contains(lines[0], "client/") || !strings.Contains(lines[6], "server/") {
		t.Fatalf("history order wrong:\n%s", out.String())
	}
}

func TestVerifyMergedJournals(t *testing.T) {
	serverDir, clientDir := fixture(t)
	var out bytes.Buffer
	rep, err := cmdVerify(&out, []string{"server=" + serverDir, "client=" + clientDir})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		t.Fatalf("clean fixture has violations: %+v", rep.Violations)
	}
	if rep.Grants != 3 || rep.Releases != 2 || rep.SharedTraces != 1 {
		t.Fatalf("report = %+v", rep)
	}
	if len(rep.OpenHolds) != 1 || !strings.Contains(rep.OpenHolds[0], "w2") {
		t.Fatalf("open holds = %v, want w2's grant", rep.OpenHolds)
	}
	if !strings.Contains(out.String(), "ok: grant/release pairing") {
		t.Fatalf("verify output:\n%s", out.String())
	}
}

func TestVerifyFlagsTokenRegression(t *testing.T) {
	dir := tokenRegressionJournal(t)
	var out bytes.Buffer
	rep, err := cmdVerify(&out, []string{dir})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ok() || !strings.Contains(out.String(), "VIOLATION") {
		t.Fatalf("token regression not flagged: %+v\n%s", rep, out.String())
	}
}

func TestWaitGraphAtInstant(t *testing.T) {
	serverDir, _ := fixture(t)
	// At t=150 the grant has not happened: w1 still waits on orders.
	var out bytes.Buffer
	if err := cmdWaitGraph(&out, []string{"-at", "150", "server=" + serverDir}); err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Waits []struct {
			Actor string `json:"actor"`
			Lock  string `json:"lock"`
		} `json:"waits"`
	}
	if err := json.Unmarshal(out.Bytes(), &snap); err != nil {
		t.Fatalf("waitgraph JSON: %v\n%s", err, out.String())
	}
	if len(snap.Waits) != 1 || snap.Waits[0].Actor != "server/w1" || snap.Waits[0].Lock != "orders" {
		t.Fatalf("waits at 150 = %+v", snap.Waits)
	}

	out.Reset()
	if err := cmdWaitGraph(&out, []string{"-at", "150", "-dot", "server=" + serverDir}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "digraph") {
		t.Fatalf("waitgraph -dot:\n%s", out.String())
	}
}

func TestChromeExport(t *testing.T) {
	serverDir, clientDir := fixture(t)
	var out bytes.Buffer
	if err := cmdHistory(&out, []string{"-o", "chrome", "server=" + serverDir, "client=" + clientDir}); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Pid  int    `json:"pid"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("chrome JSON: %v\n%s", err, out.String())
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	pids := map[int]bool{}
	var waits, holds int
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			pids[ev.Pid] = true
			switch {
			case strings.HasPrefix(ev.Name, "wait "):
				waits++
			case strings.HasPrefix(ev.Name, "hold "):
				holds++
			}
		}
	}
	if len(pids) != 2 {
		t.Fatalf("span pids = %v, want one per process", pids)
	}
	// Two grants with wait durations and two releases (one per proc).
	if waits != 2 || holds != 2 {
		t.Fatalf("waits=%d holds=%d\n%s", waits, holds, out.String())
	}

	// -out writes the same trace to a file and nothing to stdout.
	file := filepath.Join(t.TempDir(), "trace.json")
	var stdout bytes.Buffer
	if err := cmdHistory(&stdout, []string{"-o", "chrome", "-out", file, "server=" + serverDir, "client=" + clientDir}); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(file); err != nil || !bytes.Equal(got, out.Bytes()) || stdout.Len() != 0 {
		t.Fatalf("-out file differs from stdout trace (err %v, stdout %d bytes)", err, stdout.Len())
	}
}

func TestSegmentsListing(t *testing.T) {
	serverDir, _ := fixture(t)
	var out bytes.Buffer
	if err := cmdSegments(&out, []string{serverDir}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "journal-00000000.seg") || !strings.Contains(out.String(), "ok") {
		t.Fatalf("segments listing:\n%s", out.String())
	}
}

// TestExitCodes re-runs the test binary as locktimeline itself to pin
// the exit codes only main sets: 1 for a verify violation, 2 for a
// usage or input error.
func TestExitCodes(t *testing.T) {
	serverDir, clientDir := fixture(t)
	for _, tc := range []struct {
		args []string
		want int
	}{
		{[]string{"verify", "server=" + serverDir, "client=" + clientDir}, 0},
		{[]string{"verify", tokenRegressionJournal(t)}, 1},
		{[]string{"verify", filepath.Join(t.TempDir(), "missing")}, 2},
		{[]string{"verify", t.TempDir()}, 2},
		{[]string{"bogus", serverDir}, 2},
	} {
		cmd := exec.Command(os.Args[0])
		cmd.Env = append(os.Environ(), mainArgsEnv+"="+strings.Join(tc.args, "\n"))
		out, err := cmd.CombinedOutput()
		code := 0
		var exit *exec.ExitError
		if errors.As(err, &exit) {
			code = exit.ExitCode()
		} else if err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		if code != tc.want {
			t.Fatalf("%v: exit %d, want %d\n%s", tc.args, code, tc.want, out)
		}
	}
}
