# Tier-1 verification lives in `make check`: build, vet, race-enabled
# tests, plus a short fuzz smoke of every fuzzer. CI and pre-commit
# should run exactly that.

GO ?= go
BENCH_OUT ?= BENCH_pr8.json
JOURNAL_SMOKE_DIR ?= $(CURDIR)/.journal-smoke
HA_SMOKE_DIR ?= $(CURDIR)/.ha-smoke
TIMELINE_SMOKE_DIR ?= $(CURDIR)/.timeline-smoke
STATICCHECK_VERSION ?= 2024.1.1

.PHONY: all build vet staticcheck test race check bench bench-out benchdiff verify chaos fuzz serve-smoke lockd-smoke deadlock-smoke lockmon-smoke journal-smoke ha-smoke timeline-smoke perfbench-smoke clean

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# staticcheck is part of the gate when the binary is available (CI
# installs the pinned version; see .github/workflows/ci.yml). Offline
# dev boxes without it skip with a notice instead of failing.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck: not installed, skipping (CI runs $(STATICCHECK_VERSION))"; \
	fi

test:
	$(GO) test ./...

race:
	$(GO) test -race -timeout 10m ./...

check: build vet staticcheck race chaos fuzz serve-smoke lockd-smoke deadlock-smoke lockmon-smoke journal-smoke ha-smoke timeline-smoke perfbench-smoke benchdiff

# Regenerate the paper's tables and figures.
bench:
	$(GO) run ./cmd/lockbench -quick -all

# Machine-readable benchmark summary (Table 2 op costs + per-policy
# contention sweep + lockd round-trip latency + lockmon scrape
# overhead); CI uploads the file as an artifact.
bench-out:
	$(GO) run ./cmd/lockbench -quick -bench-out $(BENCH_OUT)

# Regression gate over the two newest committed BENCH_*.json summaries:
# fails if a deterministic (sim-time) metric worsened by more than 25%.
benchdiff:
	$(GO) run ./cmd/benchdiff

# Fleet-monitor smoke: the end-to-end advise-and-apply scenario (real
# lockd, HTTP scrape, wire reconfiguration) and the deterministic
# scrape-partition robustness test, under the race detector.
lockmon-smoke:
	$(GO) test ./internal/lockmon -race -count=1 -v -run 'TestEndToEndAdviseAndApply|TestScrapePartitionRobustness'

# End-to-end telemetry smoke: boot the HTTP server over a registry with a
# contended native lock and a simulated lock, scrape every endpoint; then
# a scripted -serve-for run exercising graceful shutdown from the CLI.
serve-smoke:
	$(GO) test ./internal/telemetry -run 'TestServeSmoke|TestShutdown' -count=1 -v
	$(GO) run ./cmd/lockstat -n 2 -iters 2 -serve 127.0.0.1:0 -serve-for 1s

# Network lock service smoke: server + two clients with an injected
# conn-drop schedule, the deterministic crash/shed/partition chaos
# sequence, and the binary peer frames: client JSON lines and a peer
# frame served in order on one connection, a bad peer frame ending only
# its own connection, decoding into a reused request without
# allocating, and lockd.Request held to its size class — all under the
# race detector.
lockd-smoke:
	$(GO) test ./internal/lockd -race -count=1 -v -run 'TestLockdSmoke|TestChaosRecovery|TestChaosDeterministic|TestServeConnPeerFrames|TestParsePeerRequestReusesStorage|TestRequestFitsSizeClass'

# Causal-tracing smoke: induce a real ABBA deadlock between two lockd
# clients under the race detector and require /debug/waitgraph to name
# the exact cycle while deadlock_suspected increments in /metrics,
# within the test's detection deadline.
deadlock-smoke:
	$(GO) test ./internal/lockclient -race -count=1 -timeout 120s -v -run TestDeadlockSmoke

# Event-journal smoke: SIGKILL a child mid-write and replay its segments
# (torn tail rejected by CRC, tokens still monotonic, clean reopen), the
# torn-tail corpus, and the merged client+server verification — under
# the race detector. JOURNAL_SMOKE_DIR keeps the crash-test segments on
# failure so CI can upload them as an artifact.
journal-smoke:
	JOURNAL_SMOKE_DIR=$(JOURNAL_SMOKE_DIR) $(GO) test ./internal/journal -race -count=1 -v -run 'TestCrashRecovery|TestTornTail|TestVerifyMerged'

# Replicated-lockd smoke: a 3-node in-process cluster rides a leader
# SIGKILL, a learner SIGKILL and a split-brain partition under the race
# detector — token monotonicity across the term boundary, single-holder
# proven by journal.Verify over the merged per-node journals,
# deterministic same-seed election traces, plus the client-side
# failover path — and the leader's per-peer replicators: Proposes
# outrun a delayed learner, group commit, heartbeat-only idling, log
# lag read from the match indexes, and a lagging learner caught up in
# bounded appends; and the bounded log: every node's
# retained log stays within the compaction cap, and a learner isolated
# past the cap catches up by snapshot, then takes over with tokens still
# climbing (the package's tests run with the compaction chunk lowered to
# two entries, so every scenario here compacts).
# HA_SMOKE_DIR keeps the per-node journal segments on failure so CI can
# upload them as an artifact.
ha-smoke:
	HA_SMOKE_DIR=$(HA_SMOKE_DIR) $(GO) test ./internal/replica -race -count=1 -v -run 'TestChaosKillLeaderMidHold|TestChaosKillLearnerMidHold|TestChaosPartitionLeaderSplitBrain|TestChaosSameSeedSameTrace|TestProposeOutrunsSlowLearner|TestProposesGroupCommit|TestIdleLeaderOnlyHeartbeats|TestLogLagFromMatch|TestAppendsBoundedWhileCatchingUp|TestCompactionBoundsLog|TestIsolatedLearnerCatchesUpBySnapshot|TestSnapshotRenderRoundTrip'
	$(GO) test ./internal/lockclient -race -count=1 -v -run 'TestClusterFailoverOnLeaderKill|TestFailoverResetsBackoff'

# Cluster-timeline smoke: a two-node replicated cluster with wall
# clocks skewed ±100ms serves a real client under the race detector.
# The merged per-node + client journals must verify clean in HLC order,
# while the same records merged by raw wall instants show the
# grant-before-release inversion HLC ordering exists to prevent.
# TIMELINE_SMOKE_DIR keeps the journal segments on failure so CI can
# upload them as an artifact.
timeline-smoke:
	TIMELINE_SMOKE_DIR=$(TIMELINE_SMOKE_DIR) $(GO) test ./internal/replica -race -count=1 -v -run TestTimelineSmokeSkewedCluster

# The benchmark driver is a nested module (perfbench/go.mod), so the
# root `go test ./...` never builds it; vet and test it on its own, since
# it compiles against native, journal, causal, telemetry and lockd.
perfbench-smoke:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# PASS/FAIL check of every reproduction claim.
verify:
	$(GO) run ./cmd/lockbench -verify

# Deterministic chaos: run the fault-injection acceptance tests, then a
# faulted scenario twice with the same seed — the reports must match.
chaos:
	$(GO) test ./internal/scenario -run TestChaos -count=1 -v
	@d=$$(mktemp -d) && trap 'rm -rf "$$d"' EXIT && \
	$(GO) build -o "$$d/lockstat" ./cmd/lockstat && \
	for run in 1 2; do \
		"$$d/lockstat" -n 6 -iters 5 -faults 'stall:every=3:us=2500,crash:every=9' -degrade -json > "$$d/run$$run.json" || exit 1; \
	done && \
	cmp "$$d/run1.json" "$$d/run2.json" && echo "chaos: two same-seed runs wrote identical reports"

# Short fuzz smoke of every fuzzer: the Params pack/unpack codec, the
# metrics exposition parser, the lockd JSON wire decoders held to
# encoding/json, the binary peer frame decoder (round trips, truncated
# frames rejected), the journal segment reader on arbitrary segment
# bytes, and the replication log's mutation decoder (raise -fuzztime
# for a real fuzzing session). go test fuzzes one target per run, hence
# one line each.
fuzz:
	$(GO) test ./internal/core -run '^$$' -fuzz '^FuzzParamsPackRoundtrip$$' -fuzztime 5s
	$(GO) test ./internal/telemetry -run '^$$' -fuzz '^FuzzExpositionParse$$' -fuzztime 5s
	$(GO) test ./internal/lockd -run '^$$' -fuzz '^FuzzParseRequest$$' -fuzztime 5s
	$(GO) test ./internal/lockd -run '^$$' -fuzz '^FuzzParseResponse$$' -fuzztime 5s
	$(GO) test ./internal/lockd -run '^$$' -fuzz '^FuzzParsePeerRequest$$' -fuzztime 5s
	$(GO) test ./internal/journal -run '^$$' -fuzz '^FuzzReadSegment$$' -fuzztime 5s
	$(GO) test ./internal/replica -run '^$$' -fuzz '^FuzzDecodeMutation$$' -fuzztime 5s

clean:
	$(GO) clean ./...
