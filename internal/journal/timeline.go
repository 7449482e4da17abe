package journal

import (
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/causal"
	"repro/internal/hlc"
)

// Timeline queries: the post-hoc questions an operator asks of a
// merged multi-process history — "what happened to lock X between t1
// and t2", "who held anything at the moment the election fired", "what
// handoff chain preceded this deadlock". cmd/locktimeline and the
// telemetry /debug/timeline endpoint both build on these.

// Query filters a merged timeline. Zero fields match everything.
type Query struct {
	Lock   string // exact lock name
	Agent  string // exact agent name (unqualified, as journaled)
	Kind   Kind   // KindInvalid matches all kinds
	Trace  uint64 // causal trace id
	FromNs int64  // inclusive lower bound, HLC-consistent cut
	ToNs   int64  // inclusive upper bound, 0 = no bound
	Limit  int    // keep the last Limit matches, 0 = unlimited
}

// FilterMerged applies q to an HLC-ordered merged timeline. Time
// bounds cut in HLC order (wall fallback), like GraphAt, so a skewed
// process's records land on the causally right side of the bound.
func FilterMerged(entries []MergedEntry, q Query) []MergedEntry {
	lo := hlc.PackWall(q.FromNs)
	hi := hlc.CutAt(q.ToNs)
	var out []MergedEntry
	for _, e := range entries {
		if q.FromNs > 0 {
			if before := e.HLC != 0 && e.HLC < lo || e.HLC == 0 && e.AtNs < q.FromNs; before {
				continue
			}
		}
		if q.ToNs > 0 && afterInstant(e.Entry, q.ToNs, hi) {
			continue
		}
		if q.Matches(e.Entry) {
			out = append(out, e)
		}
	}
	if q.Limit > 0 && len(out) > q.Limit {
		out = out[len(out)-q.Limit:]
	}
	return out
}

// Matches reports whether e passes q's lock, agent, kind and trace
// filters. The time bounds and Limit are left to the caller, which
// knows its time domain.
func (q Query) Matches(e Entry) bool {
	return (q.Lock == "" || e.LockName == q.Lock) &&
		(q.Agent == "" || e.AgentName == q.Agent) &&
		(q.Kind == KindInvalid || e.Kind == q.Kind) &&
		(q.Trace == 0 || e.Trace == q.Trace)
}

// ParseQuery builds a Query from the text of its lock, agent, kind,
// from and to filters, which get returns by name ("" = unset). Instants
// are ns epochs or RFC3339 times (see ParseInstant).
func ParseQuery(get func(name string) string) (Query, error) {
	q := Query{Lock: get("lock"), Agent: get("agent")}
	if v := get("kind"); v != "" {
		if q.Kind = KindFromString(v); q.Kind == KindInvalid {
			return q, fmt.Errorf("unknown kind %q", v)
		}
	}
	var err error
	if v := get("from"); v != "" {
		if q.FromNs, err = ParseInstant(v); err != nil {
			return q, fmt.Errorf("bad from %w", err)
		}
	}
	if v := get("to"); v != "" {
		if q.ToNs, err = ParseInstant(v); err != nil {
			return q, fmt.Errorf("bad to %w", err)
		}
	}
	return q, nil
}

// Hold is one open tenure in a timeline cut.
type Hold struct {
	Lock    string `json:"lock"`
	Actor   string `json:"actor"`
	Token   uint64 `json:"token,omitempty"`
	Trace   uint64 `json:"trace,omitempty"`
	SinceNs int64  `json:"since_ns"`
}

// Waiter is one queued acquire in a timeline cut.
type Waiter struct {
	Lock    string `json:"lock"`
	Actor   string `json:"actor"`
	SinceNs int64  `json:"since_ns"`
}

// Cut is the answer to "who held anything at instant t": every open
// hold and every outstanding waiter, as the merged history stood then.
type Cut struct {
	AtNs    int64    `json:"at_ns"`
	Holds   []Hold   `json:"holds,omitempty"`
	Waiters []Waiter `json:"waiters,omitempty"`
}

// StateAt replays an HLC-ordered merged timeline up to atNs and
// returns the open holds and waiters at that instant. Unlike GraphAt
// it keeps tokens, trace ids, and start instants — what an operator
// needs to chase a specific tenure.
func StateAt(entries []MergedEntry, atNs int64) Cut {
	cutKey := hlc.CutAt(atNs)
	type holdState struct {
		hold Hold
		open bool
	}
	holds := map[string]*holdState{}
	waits := map[string]map[string]int64{} // lock -> actor -> since
	for _, e := range entries {
		if afterInstant(e.Entry, atNs, cutKey) {
			break
		}
		lock := e.LockLabel()
		actor := mergedActor(e)
		switch e.Kind {
		case KindWait:
			m := waits[lock]
			if m == nil {
				m = map[string]int64{}
				waits[lock] = m
			}
			m[actor] = e.AtNs
		case KindAcquire:
			delete(waits[lock], actor)
			holds[lock] = &holdState{open: true, hold: Hold{
				Lock: lock, Actor: actor, Token: e.Token, Trace: e.Trace, SinceNs: e.AtNs,
			}}
		case KindTimeout, KindAbort:
			delete(waits[lock], actor)
		case KindRelease, KindOwnerDead:
			if st := holds[lock]; st != nil {
				st.open = false
			}
		}
	}
	cut := Cut{AtNs: atNs}
	for _, st := range holds {
		if st.open {
			cut.Holds = append(cut.Holds, st.hold)
		}
	}
	for lock, m := range waits {
		for actor, since := range m {
			cut.Waiters = append(cut.Waiters, Waiter{Lock: lock, Actor: actor, SinceNs: since})
		}
	}
	sort.Slice(cut.Holds, func(a, b int) bool { return cut.Holds[a].Lock < cut.Holds[b].Lock })
	sort.Slice(cut.Waiters, func(a, b int) bool {
		if cut.Waiters[a].Lock != cut.Waiters[b].Lock {
			return cut.Waiters[a].Lock < cut.Waiters[b].Lock
		}
		return cut.Waiters[a].Actor < cut.Waiters[b].Actor
	})
	return cut
}

// Handoff is one ownership transfer on a lock: the release (or owner
// death) that freed it and the grant that followed.
type Handoff struct {
	Lock        string `json:"lock"`
	From        string `json:"from"`
	To          string `json:"to"`
	Token       uint64 `json:"token,omitempty"`
	ReleaseKind string `json:"release_kind"` // "release" or "owner-dead"
	ReleaseAtNs int64  `json:"release_at_ns"`
	GrantAtNs   int64  `json:"grant_at_ns"`
	WaitedNs    int64  `json:"waited_ns,omitempty"` // wait the grantee endured
}

// Handoffs walks an HLC-ordered merged timeline and returns the last n
// ownership transfers on lock at or before beforeNs (0 = end of
// history) — the chain that preceded an incident. Replica echoes of a
// grant already on record are skipped so a replicated cluster's
// history yields one handoff per transfer, not one per node.
func Handoffs(entries []MergedEntry, lock string, beforeNs int64, n int) []Handoff {
	cutKey := hlc.CutAt(beforeNs)
	var (
		out       []Handoff
		holder    string
		lastRel   MergedEntry
		haveRel   bool
		seenToken = map[uint64]bool{}
	)
	for _, e := range entries {
		if beforeNs > 0 && afterInstant(e.Entry, beforeNs, cutKey) {
			break
		}
		name := e.LockLabel()
		if name != lock {
			continue
		}
		switch e.Kind {
		case KindAcquire:
			if e.Token != 0 && seenToken[e.Token] {
				continue // replica echo of a grant already counted
			}
			if e.Token != 0 {
				seenToken[e.Token] = true
			}
			to := mergedActor(e)
			if haveRel {
				out = append(out, Handoff{
					Lock: lock, From: holder, To: to, Token: e.Token,
					ReleaseKind: lastRel.Kind.String(), ReleaseAtNs: lastRel.AtNs,
					GrantAtNs: e.AtNs, WaitedNs: e.DurNs,
				})
				haveRel = false
			}
			holder = to
		case KindRelease, KindOwnerDead:
			if holder == "" {
				continue
			}
			if haveRel && e.Token != 0 && lastRel.Token == e.Token {
				continue // replica echo of the release already noted
			}
			lastRel, haveRel = e, true
		}
	}
	if n > 0 && len(out) > n {
		out = out[len(out)-n:]
	}
	return out
}

// ClockOffsets estimates each process's wall-clock offset from the
// fastest clock in the fleet, using the HLC stamps in its own journal:
// whenever a process's clock was dragged forward by a message from a
// faster peer, its records carry an HLC wall component above the local
// wall instant, and that excess converges (from below) on the true
// offset. Processes already on the fastest clock — or with no HLC
// records — get offset 0. Adding the offset to a record's AtNs aligns
// all processes onto the fastest clock's timeline.
func ClockOffsets(procs []ProcEntries) map[string]int64 {
	out := make(map[string]int64, len(procs))
	for _, p := range procs {
		var off int64
		for _, e := range p.Entries {
			if e.HLC == 0 || e.Origin == OriginSim {
				continue
			}
			if d := e.HLC.WallNs() - e.AtNs; d > off {
				off = d
			}
		}
		out[p.Proc] = off
	}
	return out
}

// ApplyOffsets returns a copy of a merged timeline with each record's
// wall instant shifted by its process's offset (see ClockOffsets), so
// exports keyed on wall time — Chrome traces above all — render one
// coherent cross-machine timeline instead of overlapping skewed ones.
func ApplyOffsets(entries []MergedEntry, offsets map[string]int64) []MergedEntry {
	out := make([]MergedEntry, len(entries))
	for i, e := range entries {
		off := offsets[e.Proc]
		e.AtNs += off
		out[i] = e
	}
	return out
}

// WriteTimeline renders a merged timeline as aligned text, one record
// per line, oldest first: wall time, HLC, kind, origin, lock, actor,
// then whichever of token, wait or hold duration, tag and trace the
// record carries. It is the locktimeline "history" view.
func WriteTimeline(w io.Writer, entries []MergedEntry) error {
	for _, e := range entries {
		extra := ""
		if e.Token != 0 {
			extra += fmt.Sprintf(" token=%d", e.Token)
		}
		if e.DurNs > 0 {
			extra += fmt.Sprintf(" dur=%s", time.Duration(e.DurNs))
		}
		if e.Tag != 0 {
			extra += fmt.Sprintf(" tag=%d", e.Tag)
		}
		if e.Trace != 0 {
			extra += " trace=" + causal.TraceID(e.Trace).String()
		}
		hlcCol := "-"
		if e.HLC != 0 {
			hlcCol = fmt.Sprintf("%d.%d", e.HLC.WallNs(), e.HLC.Logical())
		}
		if _, err := fmt.Fprintf(w, "%s  %-22s %-12s %-6s %-24s %-20s%s\n",
			e.At().UTC().Format("15:04:05.000000"), hlcCol, e.Kind, e.Origin,
			e.LockLabel(), mergedActor(e), extra); err != nil {
			return err
		}
	}
	return nil
}
