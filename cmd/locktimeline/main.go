// Command locktimeline reads lock event-journal segment directories
// offline — no live process needed. It merges the journals of several
// processes — lockd leaders, learners, clients — into one HLC-ordered
// timeline, answers the questions an incident post-mortem starts with,
// and checks that the fencing invariants held.
//
//	locktimeline history -lock orders -from t1 -to t2 leader=dirA client=dirB
//	locktimeline history -o chrome -out trace.json leader=dirA client=dirB
//	locktimeline holders -at 1712345678901234567 leader=dirA learner=dirB
//	locktimeline handoffs -lock orders -before t -n 5 leader=dirA learner=dirB
//	locktimeline skew leader=dirA learner=dirB client=dirC
//	locktimeline segments dir                # segment files with integrity flags
//	locktimeline verify client=dirA server=dirB  # invariant check (exit 1 on violation)
//	locktimeline waitgraph -at 1712345678901234567 server=dirB  # graph at an instant
//
// Journal arguments are DIR or PROC=DIR; a bare DIR is labelled with
// its base name. Merging is keyed on hybrid logical clocks (see
// internal/hlc), so the rendered order is consistent with message
// causality even when the machines' wall clocks disagree; -order wall
// shows the raw (possibly lying) wall order for comparison.
// -skew-correct additionally shifts each process's wall instants onto
// the fastest clock's timeline, estimated from the journals alone.
// The server's journal and a client's journal share trace ids, so
// verify can prove a grant seen by both sides carried the same
// monotonically-increasing fencing token.
// See docs/OBSERVABILITY.md for the full debugging workflow.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/causal"
	"repro/internal/journal"
)

func main() {
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: locktimeline <history|holders|handoffs|skew|segments|verify|waitgraph> [flags] <dir|proc=dir>...")
		flag.PrintDefaults()
	}
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *version {
		buildinfo.PrintVersion(os.Stdout, "locktimeline")
		return
	}
	if flag.NArg() < 1 {
		flag.Usage()
		os.Exit(2)
	}
	cmd, args := flag.Arg(0), flag.Args()[1:]
	var err error
	switch cmd {
	case "history":
		err = cmdHistory(os.Stdout, args)
	case "holders":
		err = cmdHolders(os.Stdout, args)
	case "handoffs":
		err = cmdHandoffs(os.Stdout, args)
	case "skew":
		err = cmdSkew(os.Stdout, args)
	case "segments":
		err = cmdSegments(os.Stdout, args)
	case "verify":
		var rep journal.VerifyReport
		rep, err = cmdVerify(os.Stdout, args)
		if err == nil && !rep.Ok() {
			os.Exit(1)
		}
	case "waitgraph":
		err = cmdWaitGraph(os.Stdout, args)
	default:
		err = fmt.Errorf("unknown subcommand %q", cmd)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "locktimeline:", err)
		os.Exit(2)
	}
}

// loadProcs resolves DIR / PROC=DIR arguments into labelled journals.
func loadProcs(args []string) ([]journal.ProcEntries, error) {
	if len(args) == 0 {
		return nil, fmt.Errorf("no journal directories given")
	}
	var procs []journal.ProcEntries
	for _, arg := range args {
		proc, dir, ok := strings.Cut(arg, "=")
		if !ok {
			dir = arg
			proc = filepath.Base(filepath.Clean(arg))
		}
		entries, infos, err := journal.ReadDir(dir)
		if err != nil {
			return nil, fmt.Errorf("read %s: %w", dir, err)
		}
		if len(entries) == 0 && len(infos) == 0 {
			return nil, fmt.Errorf("%s: no journal segments", dir)
		}
		procs = append(procs, journal.ProcEntries{Proc: proc, Entries: entries})
	}
	return procs, nil
}

func parseOrder(s string) (journal.Order, error) {
	switch s {
	case "", "hlc":
		return journal.OrderHLC, nil
	case "wall":
		return journal.OrderWall, nil
	}
	return 0, fmt.Errorf("unknown order %q (want hlc or wall)", s)
}

// mergeArgs merges the positional journals in the requested order,
// optionally shifting every process onto the fastest clock's timeline.
func mergeArgs(args []string, order journal.Order, skewCorrect bool) ([]journal.MergedEntry, error) {
	procs, err := loadProcs(args)
	if err != nil {
		return nil, err
	}
	merged := journal.MergeOrdered(procs, order)
	if skewCorrect {
		merged = journal.ApplyOffsets(merged, journal.ClockOffsets(procs))
	}
	return merged, nil
}

func cmdHistory(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("history", flag.ExitOnError)
	fs.String("lock", "", "only records for this lock name")
	fs.String("agent", "", "only records from this agent")
	fs.String("kind", "", "only records of this kind (wait, acquire, release, ...)")
	fs.String("from", "", "drop records before this instant (ns epoch or RFC3339)")
	fs.String("to", "", "drop records after this instant (ns epoch or RFC3339)")
	limit := fs.Int("n", 0, "keep only the last N matches")
	orderStr := fs.String("order", "hlc", "merge order: hlc (causal) or wall (raw clocks)")
	output := fs.String("o", "text", "output format: text, json, or chrome")
	outFile := fs.String("out", "", "write output to this file instead of stdout")
	skewCorrect := fs.Bool("skew-correct", false, "shift wall instants onto the fastest clock's timeline")
	fs.Parse(args) //nolint:errcheck // ExitOnError
	order, err := parseOrder(*orderStr)
	if err != nil {
		return err
	}
	q, err := journal.ParseQuery(func(name string) string { return fs.Lookup(name).Value.String() })
	if err != nil {
		return err
	}
	q.Limit = *limit
	merged, err := mergeArgs(fs.Args(), order, *skewCorrect)
	if err != nil {
		return err
	}
	merged = journal.FilterMerged(merged, q)
	if *outFile == "" {
		return writeHistory(w, merged, *output)
	}
	f, err := os.Create(*outFile)
	if err != nil {
		return err
	}
	if err := writeHistory(f, merged, *output); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeHistory renders a filtered timeline in the -o format.
func writeHistory(w io.Writer, merged []journal.MergedEntry, output string) error {
	switch output {
	case "text":
		return journal.WriteTimeline(w, merged)
	case "json":
		return writeJSON(w, merged)
	case "chrome":
		// One lane per process; spans within a process come from its own
		// (already consistent) sub-timeline.
		byProc := map[string][]journal.MergedEntry{}
		var names []string
		for _, e := range merged {
			if _, ok := byProc[e.Proc]; !ok {
				names = append(names, e.Proc)
			}
			byProc[e.Proc] = append(byProc[e.Proc], e)
		}
		sort.Strings(names)
		parts := make([]causal.ChromePart, 0, len(names))
		for _, name := range names {
			parts = append(parts, causal.ChromePart{Label: name, Spans: journal.Spans(byProc[name])})
		}
		return writeJSON(w, causal.ChromeSpans(parts...))
	}
	return fmt.Errorf("unknown output format %q (want text, json, or chrome)", output)
}

func cmdHolders(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("holders", flag.ExitOnError)
	at := fs.String("at", "", "the instant to cut at (ns epoch or RFC3339; default end of history)")
	orderStr := fs.String("order", "hlc", "merge order: hlc (causal) or wall (raw clocks)")
	asJSON := fs.Bool("json", false, "emit the cut as JSON")
	fs.Parse(args) //nolint:errcheck // ExitOnError
	order, err := parseOrder(*orderStr)
	if err != nil {
		return err
	}
	atNs := int64(1<<63 - 1)
	if *at != "" {
		if atNs, err = journal.ParseInstant(*at); err != nil {
			return err
		}
	}
	merged, err := mergeArgs(fs.Args(), order, false)
	if err != nil {
		return err
	}
	cut := journal.StateAt(merged, atNs)
	if *asJSON {
		return writeJSON(w, cut)
	}
	if len(cut.Holds) == 0 && len(cut.Waiters) == 0 {
		fmt.Fprintln(w, "nothing held, nobody waiting")
		return nil
	}
	for _, h := range cut.Holds {
		fmt.Fprintf(w, "held: %-20s by %-20s token=%d since=%s\n",
			h.Lock, h.Actor, h.Token, time.Unix(0, h.SinceNs).UTC().Format(time.RFC3339Nano))
	}
	for _, wt := range cut.Waiters {
		fmt.Fprintf(w, "wait: %-20s by %-20s since=%s\n",
			wt.Lock, wt.Actor, time.Unix(0, wt.SinceNs).UTC().Format(time.RFC3339Nano))
	}
	return nil
}

func cmdHandoffs(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("handoffs", flag.ExitOnError)
	lock := fs.String("lock", "", "the lock whose ownership chain to trace (required)")
	before := fs.String("before", "", "trace up to this instant (ns epoch or RFC3339; default end of history)")
	n := fs.Int("n", 0, "keep only the last N handoffs")
	asJSON := fs.Bool("json", false, "emit the chain as JSON")
	fs.Parse(args) //nolint:errcheck // ExitOnError
	if *lock == "" {
		return fmt.Errorf("handoffs requires -lock")
	}
	var beforeNs int64
	var err error
	if *before != "" {
		if beforeNs, err = journal.ParseInstant(*before); err != nil {
			return err
		}
	}
	merged, err := mergeArgs(fs.Args(), journal.OrderHLC, false)
	if err != nil {
		return err
	}
	hands := journal.Handoffs(merged, *lock, beforeNs, *n)
	if *asJSON {
		return writeJSON(w, hands)
	}
	if len(hands) == 0 {
		fmt.Fprintf(w, "no ownership transfers on %q\n", *lock)
		return nil
	}
	for _, h := range hands {
		gap := time.Duration(h.GrantAtNs - h.ReleaseAtNs)
		fmt.Fprintf(w, "%s  %-20s -> %-20s token=%d via %s gap=%s\n",
			time.Unix(0, h.GrantAtNs).UTC().Format("15:04:05.000000"),
			h.From, h.To, h.Token, h.ReleaseKind, gap)
	}
	return nil
}

func cmdSkew(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("skew", flag.ExitOnError)
	asJSON := fs.Bool("json", false, "emit the offsets as JSON")
	fs.Parse(args) //nolint:errcheck // ExitOnError
	procs, err := loadProcs(fs.Args())
	if err != nil {
		return err
	}
	offs := journal.ClockOffsets(procs)
	if *asJSON {
		return writeJSON(w, offs)
	}
	names := make([]string, 0, len(offs))
	for name := range offs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "%-20s behind fastest clock by %s\n", name, time.Duration(offs[name]))
	}
	return nil
}

func cmdSegments(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("segments", flag.ExitOnError)
	asJSON := fs.Bool("json", false, "emit segment info as a JSON array")
	fs.Parse(args) //nolint:errcheck // ExitOnError
	if fs.NArg() != 1 {
		return fmt.Errorf("segments wants exactly one journal directory")
	}
	_, infos, err := journal.ReadDir(fs.Arg(0))
	if err != nil {
		return err
	}
	if *asJSON {
		return writeJSON(w, infos)
	}
	for _, si := range infos {
		state := "ok"
		switch {
		case si.Corrupt:
			state = "CORRUPT"
		case si.Torn:
			state = "torn"
		}
		fmt.Fprintf(w, "%s  index=%d  %d bytes  %d frames  %s\n", si.Name, si.Index, si.Size, si.Frames, state)
	}
	return nil
}

func cmdVerify(w io.Writer, args []string) (journal.VerifyReport, error) {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	asJSON := fs.Bool("json", false, "emit the report as JSON")
	fs.Parse(args) //nolint:errcheck // ExitOnError
	procs, err := loadProcs(fs.Args())
	if err != nil {
		return journal.VerifyReport{}, err
	}
	rep := journal.Verify(procs)
	if *asJSON {
		return rep, writeJSON(w, rep)
	}
	fmt.Fprintf(w, "%d proc(s), %d records: %d grants, %d releases, %d forced owner-deaths, %d events dropped\n",
		rep.Procs, rep.Records, rep.Grants, rep.Releases, rep.ForcedDeaths, rep.Drops)
	if rep.Procs > 1 {
		fmt.Fprintf(w, "traces shared across journals: %d\n", rep.SharedTraces)
	}
	if rep.ReplicatedLocks > 0 {
		fmt.Fprintf(w, "replicated locks: %d (%d replica echoes deduplicated)\n",
			rep.ReplicatedLocks, rep.ReplicaEchoes)
	}
	for _, h := range rep.OpenHolds {
		fmt.Fprintf(w, "open hold: %s\n", h)
	}
	if rep.Ok() {
		fmt.Fprintln(w, "ok: grant/release pairing and fencing-token monotonicity hold")
	} else {
		for _, v := range rep.Violations {
			fmt.Fprintf(w, "VIOLATION: %s\n", v)
		}
	}
	return rep, nil
}

func cmdWaitGraph(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("waitgraph", flag.ExitOnError)
	at := fs.String("at", "", "replay up to this instant (ns epoch or RFC3339; default end of history)")
	dot := fs.Bool("dot", false, "emit Graphviz DOT instead of JSON")
	fs.Parse(args) //nolint:errcheck // ExitOnError
	atNs := int64(1<<63 - 1)
	if *at != "" {
		var err error
		if atNs, err = journal.ParseInstant(*at); err != nil {
			return err
		}
	}
	procs, err := loadProcs(fs.Args())
	if err != nil {
		return err
	}
	g := journal.GraphAt(journal.Merge(procs), atNs)
	if *dot {
		return g.WriteDOT(w)
	}
	return writeJSON(w, g)
}

func writeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
