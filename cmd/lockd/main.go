// Command lockd runs the lease-based network lock service: named
// configurable locks behind a TCP/JSON-line protocol, with sessions and
// keepalive leases, fencing tokens on every grant, bounded wait queues
// with overload shedding, and wire-level policy/scheduler
// reconfiguration (see internal/lockd).
//
//	lockd                              # serve on :7700
//	lockd -addr 127.0.0.1:7799 -v      # loopback, with diagnostics
//	lockd -lease 500ms -max-waiters 8  # short leases, aggressive shedding
//	lockd -serve :9090                 # also expose /metrics telemetry
//	lockd -serve :9090 -serve-for 30s  # scripted run: exit after 30s
//	lockd -faults conn-drop:every=20   # chaos mode: drop every 20th reply
//	lockd -journal-dir /var/lock/jrnl  # black-box event journal (cmd/locktimeline reads it)
//	lockd -replica-id 1 -peers "1@host1:7700,2@host2:7700,3@host3:7700"
//	                                   # replicated cluster member (see internal/replica)
//
// With -peers, this lockd joins a replicated cluster: members elect a
// leader on a renewable lease, the leader ships every lock mutation to
// the learners before acknowledging clients, and learners redirect
// clients to the leader (NotLeader + address hint). Peer replication
// traffic shares the lock protocol port, so each member appears in
// -peers under the address it serves on.
//
// With -faults, every accepted connection is wrapped in the
// fault-injection conn (internal/fault), so the server's own replies are
// subject to drops, delays, and partitions — chaos testing the clients.
//
// SIGQUIT dumps the always-on flight recorder (recent per-lock events)
// and the wait-for graph in DOT to stderr without stopping the server;
// the same data is served live on -serve's /debug/flightrec and
// /debug/waitgraph.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/causal"
	"repro/internal/fault"
	"repro/internal/hlc"
	"repro/internal/journal"
	"repro/internal/lockd"
	"repro/internal/replica"
	"repro/internal/telemetry"
)

func main() {
	var (
		addr       = flag.String("addr", ":7700", "address to serve the lock protocol on")
		lease      = flag.Duration("lease", 2*time.Second, "default session lease")
		maxWaiters = flag.Int("max-waiters", 64, "per-lock wait-queue bound; acquisitions beyond it are shed")
		policy     = flag.String("policy", "combined", "waiting policy for new locks: "+lockd.PolicyNames)
		sched      = flag.String("sched", "fifo", "release scheduler for new locks: "+lockd.SchedulerNames)
		faults     = flag.String("faults", "", "wrap accepted conns with this fault schedule ("+fault.SpecGrammar+")")
		seed       = flag.Int64("fault-seed", 1, "fault-schedule seed")
		serve      = flag.String("serve", "", "serve live telemetry (/metrics, /locks, /watch) on this address")
		serveFor   = flag.Duration("serve-for", 0, "stop after this duration via graceful shutdown (0 = until interrupted)")
		verbose    = flag.Bool("v", false, "log server diagnostics")

		journalDir  = flag.String("journal-dir", "", "record every lock lifecycle event to binary segments in this directory")
		journalSeg  = flag.Int64("journal-seg-bytes", 1<<20, "journal segment size before rotation")
		journalKeep = flag.Int("journal-max-segments", 8, "journal segments retained (-1 = unlimited)")

		peers       = flag.String("peers", "", `replicated cluster members as "id@addr,id@addr,..." (empty = standalone)`)
		replicaID   = flag.Int("replica-id", 0, "this member's id in -peers")
		leaderLease = flag.Duration("leader-lease", time.Second, "leader lease; elections start after this long without a leader heartbeat")
		replicaSeed = flag.Int64("replica-seed", 1, "election-ordering seed (same seed, same election order)")

		clockSkew = flag.Duration("clock-skew", 0, "offset this process's wall clock by this much (testing: exercise skewed fleets)")
	)
	showVersion := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *showVersion {
		buildinfo.PrintVersion(os.Stdout, "lockd")
		return
	}

	p, err := lockd.ParsePolicy(*policy)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lockd:", err)
		os.Exit(2)
	}
	sc, err := lockd.ParseScheduler(*sched)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lockd:", err)
		os.Exit(2)
	}
	specs, err := fault.ParseSpecs(*faults)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lockd:", err)
		os.Exit(2)
	}

	// One hybrid logical clock per process, shared by the server, the
	// journal, and the replica node, so every stamped surface reads the
	// same causal timeline. -clock-skew biases its wall source — the
	// knob timeline-smoke and skewed-fleet rehearsals turn.
	clock := hlc.Default
	if *clockSkew != 0 {
		clock = hlc.NewSkewedClock(*clockSkew)
		fmt.Fprintf(os.Stderr, "lockd: wall clock skewed by %v\n", *clockSkew)
	}
	cfg := lockd.Config{
		MaxWaiters:   *maxWaiters,
		DefaultLease: *lease,
		Policy:       &p,
		Scheduler:    sc,
		Registry:     telemetry.Default,
		Clock:        clock,
	}
	if *verbose {
		cfg.Logf = log.New(os.Stderr, "", log.LstdFlags|log.Lmicroseconds).Printf
	}
	if *journalDir != "" {
		if err := os.MkdirAll(*journalDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "lockd:", err)
			os.Exit(1)
		}
		jrn, err := journal.Open(journal.Config{
			Dir:          *journalDir,
			SegmentBytes: *journalSeg,
			MaxSegments:  *journalKeep,
			Logf:         cfg.Logf,
			Clock:        clock,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "lockd:", err)
			os.Exit(1)
		}
		defer jrn.Close()
		cfg.Journal = jrn
		telemetry.SetJournal(jrn) // -serve exposes /debug/journal
		fmt.Fprintf(os.Stderr, "lockd: journaling lock events to %s\n", *journalDir)
	}
	var (
		node     *replica.Node
		peerList []replica.Peer
	)
	if *peers != "" {
		peerList, err = parsePeers(*peers)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lockd:", err)
			os.Exit(2)
		}
		self := false
		for _, p := range peerList {
			self = self || p.ID == *replicaID
		}
		if !self {
			fmt.Fprintf(os.Stderr, "lockd: -replica-id %d is not in -peers %q\n", *replicaID, *peers)
			os.Exit(2)
		}
		node = replica.New(replica.Config{
			ID:       *replicaID,
			Lease:    *leaderLease,
			Seed:     *replicaSeed,
			Journal:  cfg.Journal,
			Registry: telemetry.Default,
			Logf:     cfg.Logf,
			Clock:    clock,
		})
		cfg.Replica = node
	}
	if len(specs) > 0 {
		schedule, err := fault.NewSchedule(*seed, specs...)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lockd:", err)
			os.Exit(2)
		}
		cfg.WrapConn = func(c net.Conn) net.Conn { return fault.WrapConn(c, schedule) }
		fmt.Fprintf(os.Stderr, "lockd: injecting faults on every connection [%s, seed %d]\n", *faults, *seed)
	}

	srv, err := lockd.Serve(*addr, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lockd:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "lockd: serving locks on %s (lease %v, max %d waiters, %s/%s)\n",
		srv.Addr(), *lease, *maxWaiters, *policy, *sched)
	if node != nil {
		node.Start(srv, peerList)
		fmt.Fprintf(os.Stderr, "lockd: replica %d in a %d-member cluster (leader lease %v, seed %d)\n",
			*replicaID, len(peerList), *leaderLease, *replicaSeed)
	}

	// SIGQUIT dumps the always-on flight recorder and the wait-for graph
	// (DOT) to stderr without stopping the server — the post-incident
	// "what just happened on every lock" view.
	quit := make(chan os.Signal, 1)
	signal.Notify(quit, syscall.SIGQUIT)
	go func() {
		for range quit {
			fmt.Fprintln(os.Stderr, "lockd: SIGQUIT flight-recorder dump:")
			causal.DefaultFlight.Dump(os.Stderr) //nolint:errcheck // best-effort dump
			fmt.Fprintln(os.Stderr, "lockd: wait-for graph:")
			causal.DefaultGraph.WriteDOT(os.Stderr) //nolint:errcheck // best-effort dump
		}
	}()

	var tsrv *telemetry.Server
	if *serve != "" {
		telemetry.RegisterBuildInfo() // lockd_build_info on /metrics
		tsrv, err = telemetry.Serve(*serve)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lockd:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "lockd: telemetry on %s\n", tsrv.URL())
	}

	// Block until interrupted or, with -serve-for, the run window ends;
	// then drain the telemetry server gracefully and stop serving locks.
	if tsrv != nil {
		if err := tsrv.Linger(*serveFor); err != nil {
			fmt.Fprintln(os.Stderr, "lockd: telemetry shutdown:", err)
		}
	} else {
		waitInterrupt(*serveFor)
	}
	ctr := srv.Counters()
	if node != nil {
		node.Close()
	}
	if err := srv.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "lockd: close:", err)
	}
	fmt.Fprintf(os.Stderr, "lockd: done: %d acquires, %d releases, %d sessions expired, %d locks recovered, %d shed\n",
		ctr.Acquires, ctr.Releases, ctr.SessionsExpired, ctr.ForcedReleases, ctr.Sheds)
}

// parsePeers parses the -peers grammar: "id@addr,id@addr,...".
func parsePeers(s string) ([]replica.Peer, error) {
	var out []replica.Peer
	seen := map[int]bool{}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		idStr, addr, ok := strings.Cut(part, "@")
		if !ok {
			return nil, fmt.Errorf("peer %q: want id@addr", part)
		}
		id, err := strconv.Atoi(idStr)
		if err != nil || id <= 0 {
			return nil, fmt.Errorf("peer %q: id must be a positive integer", part)
		}
		if addr == "" {
			return nil, fmt.Errorf("peer %q: empty address", part)
		}
		if seen[id] {
			return nil, fmt.Errorf("peer id %d listed twice", id)
		}
		seen[id] = true
		out = append(out, replica.Peer{ID: id, Addr: addr})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-peers %q names no members", s)
	}
	return out, nil
}

// waitInterrupt blocks for SIGINT/SIGTERM or, when d > 0, at most d.
func waitInterrupt(d time.Duration) {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	var timer <-chan time.Time
	if d > 0 {
		t := time.NewTimer(d)
		defer t.Stop()
		timer = t.C
	}
	select {
	case <-sig:
	case <-timer:
	}
}
