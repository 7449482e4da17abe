package causal

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// Graph is a wait-for graph over actors (threads, clients, lockd
// sessions) and locks: an actor *waits for* a lock, a lock is *held by*
// an actor. A cycle over the induced actor→actor relation ("A waits for
// a lock held by B") is a suspected deadlock.
//
// Detection runs incrementally: every mutation that can close or open a
// cycle re-walks the (small) graph (AddWait, RemoveWait and SetHolder
// skip the walk where it provably cannot change the result), and each
// distinct cycle is counted once while it stays closed — a cycle that
// persists across scrapes does not re-increment the counter, but the
// same members deadlocking again after a recovery do.
type Graph struct {
	mu      sync.Mutex
	waits   map[string]map[string]bool // actor → set of lock names awaited
	spare   []map[string]bool          // emptied sets, reused so steady-state waits do not allocate
	holders map[string]string          // lock → holding actor ("" absent)
	active  map[string][]string        // canonical signature → members of currently closed cycles
	recent  []CycleRecord              // bounded history of suspicions
	suspect int64
}

// CycleRecord is one deadlock suspicion: the actor cycle and the locks
// along it, stamped with wall time.
type CycleRecord struct {
	Actors []string  `json:"actors"`
	Locks  []string  `json:"locks"`
	At     time.Time `json:"at"`
}

// WaitEdge is one "actor waits for lock" edge in a snapshot.
type WaitEdge struct {
	Actor string `json:"actor"`
	Lock  string `json:"lock"`
}

// HeldEdge is one "lock held by actor" edge in a snapshot.
type HeldEdge struct {
	Lock  string `json:"lock"`
	Actor string `json:"actor"`
}

// GraphSnapshot is the JSON shape served by /debug/waitgraph.
type GraphSnapshot struct {
	Waits     []WaitEdge    `json:"waits"`
	Holders   []HeldEdge    `json:"holders"`
	Cycles    [][]string    `json:"cycles"` // currently closed cycles (actor lists)
	Suspected int64         `json:"deadlock_suspected"`
	Recent    []CycleRecord `json:"recent,omitempty"`
}

// maxSpareSets bounds the emptied wait sets a Graph keeps for reuse.
const maxSpareSets = 64

// NewGraph returns an empty wait-for graph.
func NewGraph() *Graph {
	return &Graph{
		waits:   make(map[string]map[string]bool),
		holders: make(map[string]string),
		active:  make(map[string][]string),
	}
}

// DefaultGraph is the process-wide graph used when a component is not
// handed an explicit one.
var DefaultGraph = NewGraph()

// AddWait records that actor is blocked waiting for lock. Nil-safe.
func (g *Graph) AddWait(actor, lock string) {
	if g == nil || actor == "" || lock == "" {
		return
	}
	g.mu.Lock()
	set := g.waits[actor]
	if set == nil {
		if n := len(g.spare); n > 0 {
			set = g.spare[n-1]
			g.spare = g.spare[:n-1]
		} else {
			set = make(map[string]bool)
		}
		g.waits[actor] = set
	}
	set[lock] = true
	if g.holders[lock] != "" {
		// A wait on a free lock adds no actor→actor edge: the scan
		// would see the graph it last saw.
		g.detectLocked()
	}
	g.mu.Unlock()
}

// RemoveWait clears a wait edge (grant, timeout, or abort). Nil-safe.
func (g *Graph) RemoveWait(actor, lock string) {
	if g == nil || actor == "" || lock == "" {
		return
	}
	g.mu.Lock()
	if set := g.waits[actor]; set != nil {
		delete(set, lock)
		if len(set) == 0 {
			// An actor that stopped waiting keeps no entry; its empty
			// set waits in spare for the next actor to block.
			delete(g.waits, actor)
			if len(g.spare) < maxSpareSets {
				g.spare = append(g.spare, set)
			}
		}
	}
	if len(g.active) > 0 {
		// Open cycles retire from the active set. Without one the graph
		// was acyclic, and removing an edge keeps it so.
		g.detectLocked()
	}
	g.mu.Unlock()
}

// SetHolder records lock's current owner; actor "" marks it free.
// Nil-safe.
func (g *Graph) SetHolder(lock, actor string) {
	if g == nil || lock == "" {
		return
	}
	g.mu.Lock()
	if actor == "" {
		delete(g.holders, lock)
	} else {
		g.holders[lock] = actor
	}
	// From an acyclic graph, freeing a lock only removes edges, and a
	// new holder that waits on nothing has no edge out to close a cycle
	// through: the scan is needed only when a cycle is open or the new
	// holder is itself blocked.
	if len(g.active) > 0 || len(g.waits[actor]) > 0 {
		g.detectLocked()
	}
	g.mu.Unlock()
}

// detectLocked recomputes the set of closed cycles and charges the
// suspicion counter for signatures not already active. Called with g.mu
// held; cost is O(V·E) over a graph that is small by construction (one
// node per blocked actor).
func (g *Graph) detectLocked() {
	found := make(map[string][]string)
	state := make(map[string]int) // 0 unvisited, 1 on path, 2 done
	var path []string
	var dfs func(a string)
	dfs = func(a string) {
		state[a] = 1
		path = append(path, a)
		for lock := range g.waits[a] {
			h := g.holders[lock]
			if h == "" {
				continue
			}
			switch state[h] {
			case 0:
				dfs(h)
			case 1:
				// h is on the current path: path[i:] is a cycle.
				for i := len(path) - 1; i >= 0; i-- {
					if path[i] == h {
						cyc := append([]string(nil), path[i:]...)
						sig, canon := canonicalCycle(cyc)
						found[sig] = canon
						break
					}
				}
			}
		}
		path = path[:len(path)-1]
		state[a] = 2
	}
	for a := range g.waits {
		if state[a] == 0 {
			dfs(a)
		}
	}

	for sig, members := range found {
		if _, ok := g.active[sig]; ok {
			continue
		}
		g.suspect++
		rec := CycleRecord{Actors: members, Locks: g.cycleLocksLocked(members), At: time.Now()}
		g.recent = append(g.recent, rec)
		if len(g.recent) > 32 {
			g.recent = g.recent[len(g.recent)-32:]
		}
	}
	g.active = found
}

// cycleLocksLocked names the locks along an actor cycle: for each actor
// the awaited lock whose holder is the next actor in the ring.
func (g *Graph) cycleLocksLocked(actors []string) []string {
	locks := make([]string, 0, len(actors))
	for i, a := range actors {
		next := actors[(i+1)%len(actors)]
		for lock := range g.waits[a] {
			if g.holders[lock] == next {
				locks = append(locks, lock)
				break
			}
		}
	}
	sort.Strings(locks)
	return locks
}

// canonicalCycle rotates the cycle so its lexicographically smallest
// member leads, yielding a stable signature regardless of where the DFS
// entered the ring.
func canonicalCycle(cyc []string) (sig string, canon []string) {
	min := 0
	for i := 1; i < len(cyc); i++ {
		if cyc[i] < cyc[min] {
			min = i
		}
	}
	canon = make([]string, 0, len(cyc))
	canon = append(canon, cyc[min:]...)
	canon = append(canon, cyc[:min]...)
	return strings.Join(canon, " -> "), canon
}

// DeadlockSuspected returns the cumulative count of distinct cycle
// closures observed. Nil-safe.
func (g *Graph) DeadlockSuspected() int64 {
	if g == nil {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.suspect
}

// Cycles returns the currently closed cycles as actor lists.
func (g *Graph) Cycles() [][]string {
	if g == nil {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([][]string, 0, len(g.active))
	for _, m := range g.active {
		out = append(out, append([]string(nil), m...))
	}
	sort.Slice(out, func(i, j int) bool { return strings.Join(out[i], ",") < strings.Join(out[j], ",") })
	return out
}

// Snapshot returns the full graph state for /debug/waitgraph JSON.
func (g *Graph) Snapshot() GraphSnapshot {
	if g == nil {
		return GraphSnapshot{}
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	snap := GraphSnapshot{Suspected: g.suspect}
	for actor, set := range g.waits {
		for lock := range set {
			snap.Waits = append(snap.Waits, WaitEdge{Actor: actor, Lock: lock})
		}
	}
	sort.Slice(snap.Waits, func(i, j int) bool {
		if snap.Waits[i].Actor != snap.Waits[j].Actor {
			return snap.Waits[i].Actor < snap.Waits[j].Actor
		}
		return snap.Waits[i].Lock < snap.Waits[j].Lock
	})
	for lock, actor := range g.holders {
		snap.Holders = append(snap.Holders, HeldEdge{Lock: lock, Actor: actor})
	}
	sort.Slice(snap.Holders, func(i, j int) bool { return snap.Holders[i].Lock < snap.Holders[j].Lock })
	for _, m := range g.active {
		snap.Cycles = append(snap.Cycles, append([]string(nil), m...))
	}
	sort.Slice(snap.Cycles, func(i, j int) bool {
		return strings.Join(snap.Cycles[i], ",") < strings.Join(snap.Cycles[j], ",")
	})
	snap.Recent = append(snap.Recent, g.recent...)
	return snap
}

// Edges reports how many wait edges are currently present.
func (g *Graph) Edges() int {
	if g == nil {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	n := 0
	for _, set := range g.waits {
		n += len(set)
	}
	return n
}

// Held reports how many locks currently have a recorded holder.
func (g *Graph) Held() int {
	if g == nil {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.holders)
}

// ActiveCycles reports how many cycles are currently closed.
func (g *Graph) ActiveCycles() int {
	if g == nil {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.active)
}

// Reset clears all edges and history (counter included).
func (g *Graph) Reset() {
	if g == nil {
		return
	}
	g.mu.Lock()
	g.waits = make(map[string]map[string]bool)
	g.spare = nil
	g.holders = make(map[string]string)
	g.active = make(map[string][]string)
	g.recent = nil
	g.suspect = 0
	g.mu.Unlock()
}

// WriteDOT renders the graph in Graphviz DOT (see GraphSnapshot.WriteDOT).
func (g *Graph) WriteDOT(w io.Writer) error { return g.Snapshot().WriteDOT(w) }

// WriteDOT renders the snapshot in Graphviz DOT: actors as ellipses,
// locks as boxes, wait edges dashed, hold edges solid, cycle members
// red.
func (snap GraphSnapshot) WriteDOT(w io.Writer) error {
	inCycle := make(map[string]bool)
	for _, cyc := range snap.Cycles {
		for _, a := range cyc {
			inCycle[a] = true
		}
	}
	var b strings.Builder
	b.WriteString("digraph waitfor {\n  rankdir=LR;\n")
	actors := make(map[string]bool)
	locks := make(map[string]bool)
	for _, e := range snap.Waits {
		actors[e.Actor] = true
		locks[e.Lock] = true
	}
	for _, e := range snap.Holders {
		actors[e.Actor] = true
		locks[e.Lock] = true
	}
	for _, a := range sortedKeys(actors) {
		attr := ""
		if inCycle[a] {
			attr = ", color=red, fontcolor=red"
		}
		fmt.Fprintf(&b, "  %q [shape=ellipse%s];\n", "actor:"+a, attr)
	}
	for _, l := range sortedKeys(locks) {
		fmt.Fprintf(&b, "  %q [shape=box];\n", "lock:"+l)
	}
	for _, e := range snap.Waits {
		fmt.Fprintf(&b, "  %q -> %q [style=dashed, label=\"waits\"];\n", "actor:"+e.Actor, "lock:"+e.Lock)
	}
	for _, e := range snap.Holders {
		fmt.Fprintf(&b, "  %q -> %q [label=\"held by\"];\n", "lock:"+e.Lock, "actor:"+e.Actor)
	}
	fmt.Fprintf(&b, "  label=\"deadlock_suspected=%d\";\n}\n", snap.Suspected)
	_, err := io.WriteString(w, b.String())
	return err
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
