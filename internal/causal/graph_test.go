package causal

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

func TestGraphABBACycle(t *testing.T) {
	g := NewGraph()
	// A holds l1, B holds l2.
	g.SetHolder("l1", "A")
	g.SetHolder("l2", "B")
	if n := g.DeadlockSuspected(); n != 0 {
		t.Fatalf("suspected = %d before any waits", n)
	}
	// A waits for l2: no cycle yet.
	g.AddWait("A", "l2")
	if n := g.DeadlockSuspected(); n != 0 {
		t.Fatalf("suspected = %d with a single wait", n)
	}
	// B waits for l1: ABBA closes.
	g.AddWait("B", "l1")
	if n := g.DeadlockSuspected(); n != 1 {
		t.Fatalf("suspected = %d, want 1", n)
	}
	cycles := g.Cycles()
	if len(cycles) != 1 || len(cycles[0]) != 2 {
		t.Fatalf("cycles = %v", cycles)
	}
	if cycles[0][0] != "A" { // canonical rotation: smallest member leads
		t.Fatalf("cycle not canonical: %v", cycles[0])
	}
	snap := g.Snapshot()
	if snap.Suspected != 1 || len(snap.Recent) != 1 {
		t.Fatalf("snapshot: suspected=%d recent=%d", snap.Suspected, len(snap.Recent))
	}
	rec := snap.Recent[0]
	if len(rec.Locks) != 2 || rec.Locks[0] != "l1" || rec.Locks[1] != "l2" {
		t.Fatalf("cycle locks = %v, want [l1 l2]", rec.Locks)
	}
}

func TestGraphCyclePersistsCountsOnce(t *testing.T) {
	g := NewGraph()
	g.SetHolder("l1", "A")
	g.SetHolder("l2", "B")
	g.AddWait("A", "l2")
	g.AddWait("B", "l1")
	// Unrelated mutations while the cycle stays closed must not
	// re-charge the counter.
	g.SetHolder("l3", "C")
	g.AddWait("C", "l1")
	g.RemoveWait("C", "l1")
	if n := g.DeadlockSuspected(); n != 1 {
		t.Fatalf("suspected = %d, want 1 (cycle persisted)", n)
	}
	// Breaking and re-closing the same cycle is a fresh suspicion.
	g.RemoveWait("B", "l1")
	if n := g.ActiveCycles(); n != 0 {
		t.Fatalf("active cycles = %d after break", n)
	}
	g.AddWait("B", "l1")
	if n := g.DeadlockSuspected(); n != 2 {
		t.Fatalf("suspected = %d, want 2 after re-closing", n)
	}
}

func TestGraphThreeCycle(t *testing.T) {
	g := NewGraph()
	g.SetHolder("la", "a")
	g.SetHolder("lb", "b")
	g.SetHolder("lc", "c")
	g.AddWait("a", "lb")
	g.AddWait("b", "lc")
	g.AddWait("c", "la")
	if n := g.DeadlockSuspected(); n != 1 {
		t.Fatalf("suspected = %d, want 1", n)
	}
	cyc := g.Cycles()
	if len(cyc) != 1 || len(cyc[0]) != 3 {
		t.Fatalf("cycles = %v, want one 3-cycle", cyc)
	}
	want := []string{"a", "b", "c"}
	for i, m := range cyc[0] {
		if m != want[i] {
			t.Fatalf("cycle = %v, want %v", cyc[0], want)
		}
	}
}

func TestGraphGrantOrderingNoSelfCycle(t *testing.T) {
	g := NewGraph()
	g.SetHolder("l1", "A")
	g.AddWait("B", "l1")
	// Grant to B with the RemoveWait-before-SetHolder ordering the
	// trackers use; no transient self-cycle may be charged.
	g.RemoveWait("B", "l1")
	g.SetHolder("l1", "B")
	if n := g.DeadlockSuspected(); n != 0 {
		t.Fatalf("suspected = %d after clean grant", n)
	}
}

func TestGraphEdgesHeldCounts(t *testing.T) {
	g := NewGraph()
	g.SetHolder("l1", "A")
	g.AddWait("B", "l1")
	g.AddWait("C", "l1")
	if g.Edges() != 2 || g.Held() != 1 {
		t.Fatalf("edges=%d held=%d", g.Edges(), g.Held())
	}
	g.Reset()
	if g.Edges() != 0 || g.Held() != 0 || g.DeadlockSuspected() != 0 {
		t.Fatal("Reset did not clear")
	}
}

func TestGraphDOT(t *testing.T) {
	g := NewGraph()
	g.SetHolder("l1", "A")
	g.SetHolder("l2", "B")
	g.AddWait("A", "l2")
	g.AddWait("B", "l1")
	var b strings.Builder
	if err := g.WriteDOT(&b); err != nil {
		t.Fatal(err)
	}
	dot := b.String()
	for _, want := range []string{
		"digraph waitfor",
		`"actor:A"`, `"actor:B"`, `"lock:l1"`, `"lock:l2"`,
		"color=red", // cycle members highlighted
		`label="waits"`, `label="held by"`,
		"deadlock_suspected=1",
	} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q:\n%s", want, dot)
		}
	}
}

func TestGraphNilSafe(t *testing.T) {
	var g *Graph
	g.AddWait("a", "l")
	g.RemoveWait("a", "l")
	g.SetHolder("l", "a")
	g.Reset()
	if g.DeadlockSuspected() != 0 || g.Edges() != 0 || g.Held() != 0 || g.ActiveCycles() != 0 {
		t.Fatal("nil graph not inert")
	}
	if g.Cycles() != nil {
		t.Fatal("nil graph Cycles not nil")
	}
	var b strings.Builder
	if err := g.WriteDOT(&b); err != nil {
		t.Fatal(err)
	}
	_ = g.Snapshot()
}

// graphOp is one mutation in an early-out scenario; scan says whether
// it must walk the graph (false: the early-out must skip the walk).
type graphOp struct {
	op          string // "wait", "unwait", "hold"
	actor, lock string
	scan        bool
}

func (o graphOp) apply(g *Graph) {
	switch o.op {
	case "wait":
		g.AddWait(o.actor, o.lock)
	case "unwait":
		g.RemoveWait(o.actor, o.lock)
	case "hold":
		g.SetHolder(o.lock, o.actor)
	}
}

// TestGraphEarlyOuts runs one scenario per early-out: each skips the
// walk where it provably cannot change the result (a skipped walk leaves
// the active-cycle map in place; a walk always replaces it), and the
// cycle the scenario closes afterwards is still detected.
func TestGraphEarlyOuts(t *testing.T) {
	cases := []struct {
		name, cycle string
		ops         []graphOp
	}{
		{"remove-edge-while-acyclic", "A,B", []graphOp{
			{"hold", "A", "l1", false},
			{"hold", "B", "l2", false},
			{"wait", "B", "l1", true},
			{"unwait", "B", "l1", false},
			{"hold", "", "l2", false},
			{"hold", "B", "l2", false},
			{"wait", "B", "l1", true},
			{"wait", "A", "l2", true}, // closes A→B→A
		}},
		{"wait-on-free-lock", "A,B", []graphOp{
			{"wait", "A", "l2", false},
			{"hold", "A", "l1", true}, // A is blocked
			{"wait", "B", "l1", true},
			{"hold", "B", "l2", true}, // B is blocked: closes A→B→A
		}},
		{"new-holder-waits-on-nothing", "B,C", []graphOp{
			{"hold", "A", "l1", false},
			{"wait", "B", "l1", true},
			{"hold", "C", "l1", false}, // B→A becomes B→C
			{"hold", "B", "l2", true},
			{"wait", "C", "l2", true}, // closes B→C→B
			{"hold", "D", "l3", true}, // a cycle is open: no early-out
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			g := NewGraph()
			for i, op := range c.ops {
				before := reflect.ValueOf(g.active).Pointer()
				op.apply(g)
				if scanned := reflect.ValueOf(g.active).Pointer() != before; scanned != op.scan {
					t.Fatalf("op %d %+v: scanned = %v, want %v", i, op, scanned, op.scan)
				}
			}
			if cycles := g.Cycles(); len(cycles) != 1 || strings.Join(cycles[0], ",") != c.cycle {
				t.Fatalf("cycles = %v, want one cycle %s", cycles, c.cycle)
			}
			if n := g.DeadlockSuspected(); n != 1 {
				t.Fatalf("suspected = %d, want 1", n)
			}
		})
	}
}

// TestGraphEarlyOutsMatchFullScan drives a graph with the early-outs and
// a reference that walks after every mutation through the same random
// history, comparing the open cycles and the suspicion count at every
// step. Each actor waits on at most one lock, so every actor has at
// most one outgoing edge, the cycles are disjoint and a walk finds all
// of them whatever order it visits the map in.
func TestGraphEarlyOutsMatchFullScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	actors := []string{"A", "B", "C", "D"}
	locks := []string{"l1", "l2", "l3", "l4"}
	g, ref := NewGraph(), NewGraph()
	waiting := map[string]string{}
	for step := 0; step < 5000; step++ {
		a, l := actors[rng.Intn(len(actors))], locks[rng.Intn(len(locks))]
		var op graphOp
		switch rng.Intn(3) {
		case 0:
			if waiting[a] != "" {
				op = graphOp{op: "unwait", actor: a, lock: waiting[a]}
				delete(waiting, a)
			} else {
				op = graphOp{op: "wait", actor: a, lock: l}
				waiting[a] = l
			}
		case 1:
			op = graphOp{op: "hold", actor: a, lock: l}
		case 2:
			op = graphOp{op: "hold", lock: l}
		}
		op.apply(g)
		op.apply(ref)
		ref.mu.Lock()
		ref.detectLocked()
		ref.mu.Unlock()
		if got, want := g.Cycles(), ref.Cycles(); !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d %+v: cycles %v, full scan %v", step, op, got, want)
		}
		if got, want := g.DeadlockSuspected(), ref.DeadlockSuspected(); got != want {
			t.Fatalf("step %d %+v: suspected %d, full scan %d", step, op, got, want)
		}
	}
	if ref.DeadlockSuspected() == 0 {
		t.Fatal("the random history closed no cycle; the comparison proved nothing")
	}
}

// TestGraphSteadyStateNoAllocs pins that the wait/grant/release cycle
// lockd runs for every acquisition allocates nothing once warm, and
// that an actor that stopped waiting leaves no entry behind.
func TestGraphSteadyStateNoAllocs(t *testing.T) {
	g := NewGraph()
	cycle := func() {
		g.AddWait("a", "L")
		g.RemoveWait("a", "L")
		g.SetHolder("L", "a")
		g.SetHolder("L", "")
	}
	cycle()
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Fatalf("AddWait/RemoveWait/SetHolder/SetHolder cycle = %v allocs, want 0", n)
	}
	if _, ok := g.waits["a"]; ok || g.Edges() != 0 {
		t.Fatalf("actor that stopped waiting kept an entry: %v", g.waits)
	}
}
