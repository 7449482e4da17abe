package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/causal"
	"repro/internal/telemetry"
)

// chaosArgs is the faulted scenario `make chaos` runs, plus the mid-run
// reconfiguration agent: besides contended grants it reaches injected
// faults, watchdog trips, owner deaths, recovery grants and
// reconfigurations.
var chaosArgs = []string{"-n", "6", "-iters", "5", "-faults", "stall:every=3:us=2500,crash:every=9", "-degrade", "-agent"}

// runMain runs main with args as a fresh process would — a new flag set,
// an empty default telemetry registry, a fixed causal ID seed — and
// returns what it wrote to stdout.
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
	os.Args = append([]string{"lockstat"}, args...)
	flag.CommandLine = flag.NewFlagSet("lockstat", flag.ExitOnError)
	telemetry.Default = telemetry.NewRegistry()
	causal.SetIDSeed(1)
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

// TestGoldenChaos pins lockstat's text, -json, -chrome and
// -critical-path output on the faulted scenario.
func TestGoldenChaos(t *testing.T) {
	checkGolden(t, "chaos.txt", runMain(t, chaosArgs...))
	checkGolden(t, "chaos.json", runMain(t, append(chaosArgs, "-json")...))
	checkGolden(t, "chaos-critical-path.txt", runMain(t, append(chaosArgs, "-critical-path")...))
	checkGolden(t, "chaos-critical-path.json", runMain(t, append(chaosArgs, "-critical-path", "-json")...))
	chrome := filepath.Join(t.TempDir(), "chrome.json")
	runMain(t, append(chaosArgs, "-json", "-chrome", chrome)...)
	got, err := os.ReadFile(chrome)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "chaos.chrome.json", got)
}
