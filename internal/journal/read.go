package journal

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/causal"
	"repro/internal/hlc"
)

// The read side works on segment files alone — no live Journal needed,
// no writer cooperation. It is what cmd/locktimeline and the telemetry
// /debug/journal endpoint build on. Robustness rules: a frame with a
// bad CRC ends the segment (everything after a torn write is suspect);
// a short trailing read is a torn tail, not an error.

// Entry is a decoded record with its names resolved.
type Entry struct {
	Record
	LockName  string `json:"lock"`
	AgentName string `json:"agent,omitempty"`
}

// LockLabel names e's lock: its journaled name, or lock#ID when the
// name frame was never read.
func (e Entry) LockLabel() string {
	if e.LockName != "" {
		return e.LockName
	}
	return "lock#" + strconv.FormatUint(uint64(e.Lock), 10)
}

// ParseInstant reads an instant given as a nanosecond epoch integer or
// an RFC3339 timestamp.
func ParseInstant(s string) (int64, error) {
	if ns, err := strconv.ParseInt(s, 10, 64); err == nil {
		return ns, nil
	}
	t, err := time.Parse(time.RFC3339Nano, s)
	if err != nil {
		return 0, fmt.Errorf("instant %q: not a ns epoch or RFC3339 time", s)
	}
	return t.UnixNano(), nil
}

// SegmentInfo describes one segment file on disk.
type SegmentInfo struct {
	Path      string    `json:"path"`
	Name      string    `json:"name"`
	Index     uint64    `json:"index"`
	Size      int64     `json:"size"`
	ModTime   time.Time `json:"mod_time"`
	CreatedNs int64     `json:"created_ns"`
	Frames    int       `json:"frames"`  // complete, CRC-valid frames read
	Torn      bool      `json:"torn"`    // trailing partial frame dropped
	Corrupt   bool      `json:"corrupt"` // CRC failure truncated the read
}

// listSegments stats every journal-*.seg in dir without parsing.
// Ordering is by the numeric segment index parsed out of the name —
// never by the lexical file order the glob returns, which inverts once
// indexes outgrow the zero-padded %08d width (journal-100000000.seg
// sorts lexically before journal-99999999.seg).
func listSegments(dir string) ([]SegmentInfo, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "journal-*.seg"))
	if err != nil {
		return nil, err
	}
	var infos []SegmentInfo
	for _, path := range matches {
		fi, err := os.Stat(path)
		if err != nil {
			continue // raced with retention
		}
		base := filepath.Base(path)
		digits := strings.TrimSuffix(strings.TrimPrefix(base, "journal-"), ".seg")
		index, err := strconv.ParseUint(digits, 10, 64)
		if err != nil {
			continue // not a segment name we minted
		}
		infos = append(infos, SegmentInfo{
			Path: path, Name: base, Index: index,
			Size: fi.Size(), ModTime: fi.ModTime(),
		})
	}
	sort.Slice(infos, func(a, b int) bool { return infos[a].Index < infos[b].Index })
	return infos, nil
}

// ListSegments returns the segments in dir, oldest first by index.
func ListSegments(dir string) ([]SegmentInfo, error) { return listSegments(dir) }

// nameTable accumulates id→name mappings as name frames stream past.
// Segments are self-contained, but the table persists across segments
// of one directory so records appearing before their (re-emitted) name
// frame in a later read order still resolve.
type nameTable struct {
	locks  map[uint32]string
	agents map[uint32]string
}

func newNameTable() *nameTable {
	return &nameTable{locks: map[uint32]string{}, agents: map[uint32]string{}}
}

// ReadSegment parses one segment file. A CRC-invalid frame or torn
// tail truncates the result (flagged in SegmentInfo) — it is not an
// error; only an unreadable file or bad header is.
func ReadSegment(path string) ([]Entry, SegmentInfo, error) {
	return readSegment(path, newNameTable())
}

func readSegment(path string, names *nameTable) ([]Entry, SegmentInfo, error) {
	info := SegmentInfo{Path: path, Name: filepath.Base(path)}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, info, err
	}
	info.Size = int64(len(data))
	if fi, err := os.Stat(path); err == nil {
		info.ModTime = fi.ModTime()
	}
	index, createdNs, frameSize, err := decodeSegHeader(data)
	if err != nil {
		return nil, info, err
	}
	info.Index, info.CreatedNs = index, createdNs

	var entries []Entry
	for off := segHeaderSize; off < len(data); off += frameSize {
		if off+frameSize > len(data) {
			info.Torn = true // partial trailing write: a crash mid-frame
			break
		}
		frame := data[off : off+frameSize]
		if !frameOK(frame) {
			// A bad CRC means a torn or corrupted write; nothing after
			// it can be trusted to be frame-aligned in content.
			info.Corrupt = true
			break
		}
		switch frame[0] {
		case frameLockName:
			id, name := decodeName(frame)
			names.locks[id] = name
		case frameAgentName:
			id, name := decodeName(frame)
			names.agents[id] = name
		case frameEvent:
			rec := decodeEvent(frame)
			entries = append(entries, Entry{
				Record:    rec,
				LockName:  names.locks[rec.Lock],
				AgentName: names.agents[rec.Agent],
			})
		default:
			info.Corrupt = true // unknown frame type: treat as corruption
		}
		if info.Corrupt {
			break
		}
		info.Frames++
	}
	return entries, info, nil
}

// ReadDir reads every segment in a journal directory, oldest first.
// Unreadable segments are skipped and reported via their SegmentInfo
// (Corrupt set, zero frames), not as an error.
func ReadDir(dir string) ([]Entry, []SegmentInfo, error) {
	infos, err := listSegments(dir)
	if err != nil {
		return nil, nil, err
	}
	names := newNameTable()
	var all []Entry
	out := make([]SegmentInfo, 0, len(infos))
	for _, si := range infos {
		entries, ri, err := readSegment(si.Path, names)
		if err != nil {
			si.Corrupt = true
			out = append(out, si)
			continue
		}
		all = append(all, entries...)
		out = append(out, ri)
	}
	return all, out, nil
}

// MergedEntry is an Entry labelled with the process/journal it came
// from.
type MergedEntry struct {
	Proc string `json:"proc"`
	Entry
}

// ProcEntries names one process's journal for Merge and Verify.
type ProcEntries struct {
	Proc    string
	Entries []Entry
}

// Order selects the timestamp a merge sorts on.
type Order int

const (
	// OrderHLC sorts on hybrid logical clocks (wall fallback for
	// records that predate HLC stamping): the order consistent with
	// message causality across skewed machines. The default.
	OrderHLC Order = iota
	// OrderWall sorts on raw per-process wall clocks — the pre-HLC
	// behavior, kept for comparison and for demonstrating what skew
	// does to a cross-node history.
	OrderWall
)

// Merge interleaves several processes' journals into one timeline in
// HLC order (ties: process label, then shard sequence). Because every
// producer stamps records from a clock that merges the timestamps on
// the messages it receives, the order is consistent with causality —
// a grant a client observed can never sort after the release that
// client issued — regardless of wall-clock skew between machines.
// Records without an HLC (v1 segments, sim journals) fall back to
// their wall instants.
func Merge(procs []ProcEntries) []MergedEntry { return MergeOrdered(procs, OrderHLC) }

// MergeOrdered is Merge with an explicit ordering key.
func MergeOrdered(procs []ProcEntries, order Order) []MergedEntry {
	var out []MergedEntry
	for _, p := range procs {
		for _, e := range p.Entries {
			out = append(out, MergedEntry{Proc: p.Proc, Entry: e})
		}
	}
	key := func(m MergedEntry) uint64 { return uint64(m.HLCKey()) }
	if order == OrderWall {
		key = func(m MergedEntry) uint64 { return uint64(m.AtNs) }
	}
	sort.SliceStable(out, func(a, b int) bool {
		ka, kb := key(out[a]), key(out[b])
		if ka != kb {
			return ka < kb
		}
		if out[a].Proc != out[b].Proc {
			return out[a].Proc < out[b].Proc
		}
		return out[a].Seq < out[b].Seq
	})
	return out
}

// VerifyReport is the outcome of consistency checking one or more
// journals. Violations is empty iff the history is clean.
type VerifyReport struct {
	Procs        int   `json:"procs"`
	Records      int   `json:"records"`
	Grants       int   `json:"grants"`
	Releases     int   `json:"releases"`
	ForcedDeaths int   `json:"forced_deaths"`
	Drops        int64 `json:"drops"` // events lost to ring overflow
	SharedTraces int   `json:"shared_traces"`
	// ReplicatedLocks counts locks whose server-side (OriginLockd)
	// history appears in more than one journal — replicas of one lockd
	// cluster. Those locks are checked with the cross-node invariants
	// instead of the per-process ones.
	ReplicatedLocks int `json:"replicated_locks,omitempty"`
	// ReplicaEchoes counts grant/release records that duplicate an
	// already-seen tenure from another replica's view of the same
	// mutation — expected in replicated logs, not violations.
	ReplicaEchoes int      `json:"replica_echoes,omitempty"`
	OpenHolds     []string `json:"open_holds,omitempty"` // grants with no release by end of journal
	Violations    []string `json:"violations,omitempty"`
}

// Ok reports whether verification found no violations.
func (r VerifyReport) Ok() bool { return len(r.Violations) == 0 }

// Verify checks the two invariants the fencing design promises, per
// lock, within each process's own view:
//
//   - grant/release pairing: no lock is granted twice without an
//     intervening release (or owner-death), and no release appears
//     without a grant;
//   - fencing-token monotonicity: tokens carried by grants on one lock
//     strictly increase.
//
// Across processes it counts trace ids seen in more than one journal —
// the join evidence for a merged client/server history. Records whose
// history has drops (KindDrops) relax the pairing check for the locks
// that follow, since arbitrary events may be missing.
//
// Locks whose OriginLockd history shows up in more than one journal are
// replica views of one replicated lockd cluster: the leader journals
// each mutation at commit and every learner journals it again at apply,
// so the per-process pairing rules would mistake the duplicate tenures
// for double grants. Those locks switch to the cross-node invariants
// instead — see verifyReplicated.
func Verify(procs []ProcEntries) VerifyReport { return VerifyOrdered(procs, OrderHLC) }

// VerifyOrdered is Verify with an explicit merge order for the
// cross-node (replicated) checks. OrderWall reproduces the pre-HLC
// behavior: with skewed replica clocks it can misorder a release after
// the next grant and report dual-holder violations that never happened
// — which is exactly what the skew regression tests pin down.
func VerifyOrdered(procs []ProcEntries, order Order) VerifyReport {
	rep := VerifyReport{Procs: len(procs)}
	replicated := replicatedLocks(procs)
	traceProcs := map[uint64]map[string]bool{}
	for _, p := range procs {
		type lockState struct {
			held      bool
			holder    string
			lastToken uint64
		}
		states := map[string]*lockState{}
		dropsSeen := false
		for _, e := range p.Entries {
			rep.Records++
			if e.Trace != 0 {
				m := traceProcs[e.Trace]
				if m == nil {
					m = map[string]bool{}
					traceProcs[e.Trace] = m
				}
				m[p.Proc] = true
			}
			name := e.LockLabel()
			if e.Origin == OriginLockd && replicated[name] {
				if e.Kind == KindDrops {
					dropsSeen = true
					rep.Drops += e.DurNs
				}
				continue // checked by verifyReplicated instead
			}
			st := states[name]
			if st == nil {
				st = &lockState{}
				states[name] = st
			}
			actor := e.AgentName
			if actor == "" && e.Tag != 0 {
				actor = fmt.Sprintf("tag-%d", e.Tag)
			}
			switch e.Kind {
			case KindDrops:
				dropsSeen = true
				rep.Drops += e.DurNs
			case KindAcquire:
				rep.Grants++
				if st.held && !dropsSeen {
					rep.Violations = append(rep.Violations, fmt.Sprintf(
						"%s/%s: granted to %q at %d while still held by %q (missing release)",
						p.Proc, name, actor, e.AtNs, st.holder))
				}
				if e.Token != 0 {
					if e.Token <= st.lastToken {
						rep.Violations = append(rep.Violations, fmt.Sprintf(
							"%s/%s: fencing token %d not above previous %d at %d",
							p.Proc, name, e.Token, st.lastToken, e.AtNs))
					}
					st.lastToken = e.Token
				}
				st.held, st.holder = true, actor
			case KindRelease, KindOwnerDead:
				if e.Kind == KindRelease {
					rep.Releases++
				} else {
					rep.ForcedDeaths++
				}
				if !st.held && !dropsSeen {
					rep.Violations = append(rep.Violations, fmt.Sprintf(
						"%s/%s: %s at %d with no grant outstanding",
						p.Proc, name, e.Kind, e.AtNs))
				}
				st.held, st.holder = false, ""
			}
		}
		for name, st := range states {
			if st.held {
				rep.OpenHolds = append(rep.OpenHolds, fmt.Sprintf(
					"%s/%s: held by %q at end of journal", p.Proc, name, st.holder))
			}
		}
	}
	for _, procs := range traceProcs {
		if len(procs) > 1 {
			rep.SharedTraces++
		}
	}
	verifyReplicated(procs, replicated, order, &rep)
	sort.Strings(rep.OpenHolds)
	return rep
}

// replicatedLocks finds locks whose server-side history spans more than
// one journal: the signature of replica views of one cluster.
func replicatedLocks(procs []ProcEntries) map[string]bool {
	seen := map[string]map[string]bool{}
	for _, p := range procs {
		for _, e := range p.Entries {
			if e.Origin != OriginLockd {
				continue
			}
			name := e.LockLabel()
			m := seen[name]
			if m == nil {
				m = map[string]bool{}
				seen[name] = m
			}
			m[p.Proc] = true
		}
	}
	out := map[string]bool{}
	for name, m := range seen {
		if len(m) > 1 {
			out[name] = true
		}
	}
	return out
}

// verifyReplicated checks the cross-node invariants on replicated
// locks' merged OriginLockd history:
//
//   - single holder: at any instant at most one fencing token is open;
//     a grant while a *different* token is open is a dual-holder
//     violation;
//   - cross-node token monotonicity: each newly opened token strictly
//     exceeds every token opened before it, across term changes;
//   - replica echoes — another node's first copy of a grant already on
//     record, or a release of an already-closed token — are the
//     learners' applied copies of the leader's mutation and are
//     counted, not flagged. Echoes may arrive long after the token
//     retired: a healed partition catches up on the log and re-applies
//     old grants with fresh timestamps.
func verifyReplicated(procs []ProcEntries, replicated map[string]bool, order Order, rep *VerifyReport) {
	if len(replicated) == 0 {
		return
	}
	rep.ReplicatedLocks = len(replicated)
	type repState struct {
		openToken uint64
		holder    string
		lastToken uint64
		grantedBy map[uint64]map[string]bool // token -> procs holding its grant record
	}
	states := map[string]*repState{}
	for _, m := range MergeOrdered(procs, order) {
		if m.Origin != OriginLockd {
			continue
		}
		name := m.LockLabel()
		if !replicated[name] {
			continue
		}
		st := states[name]
		if st == nil {
			st = &repState{grantedBy: map[uint64]map[string]bool{}}
			states[name] = st
		}
		actor := mergedActor(m)
		switch m.Kind {
		case KindAcquire:
			if m.Token == 0 {
				continue
			}
			if by := st.grantedBy[m.Token]; by != nil && !by[m.Proc] {
				// Another node's first copy of a grant already on
				// record — an applied echo, even if the token has long
				// since retired. A second copy from the SAME proc falls
				// through to the floor checks: that would be a genuine
				// double grant.
				by[m.Proc] = true
				rep.ReplicaEchoes++
				continue
			}
			if st.openToken == m.Token {
				rep.ReplicaEchoes++
				continue
			}
			if st.openToken != 0 {
				rep.Violations = append(rep.Violations, fmt.Sprintf(
					"replicated %s: token %d granted to %q at %d while token %d still held by %q (dual holder)",
					name, m.Token, actor, m.AtNs, st.openToken, st.holder))
			}
			if m.Token <= st.lastToken {
				rep.Violations = append(rep.Violations, fmt.Sprintf(
					"replicated %s: fencing token %d not above previous %d at %d",
					name, m.Token, st.lastToken, m.AtNs))
			} else {
				st.lastToken = m.Token
			}
			st.openToken, st.holder = m.Token, actor
			st.grantedBy[m.Token] = map[string]bool{m.Proc: true}
			rep.Grants++
		case KindRelease, KindOwnerDead:
			closes := m.Token == st.openToken && st.openToken != 0
			// A tokenless release (legacy producers) closes whatever is
			// open; releases of tokens already retired are echoes.
			if m.Token == 0 && st.openToken != 0 {
				closes = true
			}
			if closes {
				st.openToken, st.holder = 0, ""
				if m.Kind == KindRelease {
					rep.Releases++
				} else {
					rep.ForcedDeaths++
				}
				continue
			}
			if m.Token != 0 && m.Token <= st.lastToken {
				rep.ReplicaEchoes++
				continue
			}
			rep.Violations = append(rep.Violations, fmt.Sprintf(
				"replicated %s: %s of token %d at %d with no matching grant open",
				name, m.Kind, m.Token, m.AtNs))
		}
	}
	for name, st := range states {
		if st.openToken != 0 {
			rep.OpenHolds = append(rep.OpenHolds, fmt.Sprintf(
				"replicated/%s: token %d held by %q at end of journal", name, st.openToken, st.holder))
		}
	}
}

// afterInstant reports whether e lies strictly after instant atNs in
// the record's own time domain: HLC-stamped records compare their HLC
// against the cut (so a skewed replica's records land on the causally
// right side), unstamped ones their raw wall instant.
func afterInstant(e Entry, atNs int64, cut hlc.Time) bool {
	if e.HLC != 0 {
		return e.HLC > cut
	}
	return e.AtNs > atNs
}

// GraphAt replays a merged timeline up to (and including) instant
// atNs and returns the wait-for graph as it stood then — who held
// what, who waited on whom — for post-hoc deadlock analysis. The cut
// is taken in HLC order where records are stamped, wall order where
// not. Each suspected cycle is stamped with the wall instant of the
// record that closed it, not the moment of the replay, so one journal
// always replays to the same snapshot.
func GraphAt(entries []MergedEntry, atNs int64) causal.GraphSnapshot {
	cut := hlc.CutAt(atNs)
	g := causal.NewGraph()
	var closedAt []time.Time // one per suspicion, oldest first
	for _, e := range entries {
		if afterInstant(e.Entry, atNs, cut) {
			break
		}
		lock := e.LockLabel()
		actor := mergedActor(e)
		switch e.Kind {
		case KindWait:
			g.AddWait(actor, lock)
		case KindAcquire:
			g.RemoveWait(actor, lock)
			g.SetHolder(lock, actor)
		case KindTimeout, KindAbort:
			g.RemoveWait(actor, lock)
		case KindRelease, KindOwnerDead:
			g.SetHolder(lock, "")
		}
		for int64(len(closedAt)) < g.DeadlockSuspected() {
			closedAt = append(closedAt, time.Unix(0, e.AtNs).UTC())
		}
	}
	snap := g.Snapshot()
	// Recent holds the newest suspicions, in the order they closed.
	closedAt = closedAt[len(closedAt)-len(snap.Recent):]
	for i := range snap.Recent {
		snap.Recent[i].At = closedAt[i]
	}
	return snap
}

// mergedActor names the acting party of a merged record, qualified by
// process so same-named actors in different journals stay distinct.
func mergedActor(e MergedEntry) string {
	switch {
	case e.AgentName != "":
		return e.Proc + "/" + e.AgentName
	case e.Tag != 0:
		return fmt.Sprintf("%s/tag-%d", e.Proc, e.Tag)
	default:
		return e.Proc + "/anon"
	}
}

// Spans converts a merged timeline into causal spans — wait spans from
// grants that carry a wait duration, hold spans from releases — ready
// for causal.ChromeSpans export. Entries from one proc should go into
// one ChromePart so the trace viewer lanes them per process. Span ids
// are synthesized sequentially: journals record events, not span
// trees, so there are no parent links, but trace ids ride along in the
// viewer args to correlate lanes across processes.
func Spans(entries []MergedEntry) []causal.Span {
	var spans []causal.Span
	nextID := causal.SpanID(1)
	add := func(e MergedEntry, name string, startNs, endNs int64, token uint64) {
		s := causal.Span{
			Trace: causal.TraceID(e.Trace), ID: nextID, Name: name,
			Actor: mergedActor(e), Object: e.LockLabel(), Start: startNs, End: endNs,
		}
		if token != 0 {
			s.Attrs = map[string]string{"token": strconv.FormatUint(token, 10)}
		}
		nextID++
		spans = append(spans, s)
	}
	for _, e := range entries {
		switch e.Kind {
		case KindAcquire:
			if e.DurNs > 0 {
				add(e, "wait", e.AtNs-e.DurNs, e.AtNs, e.Token)
			}
		case KindRelease, KindOwnerDead:
			name := "hold"
			if e.Kind == KindOwnerDead {
				name = "hold-owner-dead"
			}
			start := e.AtNs - e.DurNs
			if e.DurNs <= 0 {
				start = e.AtNs
			}
			add(e, name, start, e.AtNs, e.Token)
		}
	}
	return spans
}
