package telemetry

import (
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/native"
)

// hotAcquire and coldAcquire are two distinct acquisition sites. noinline
// keeps each one a real stack frame so the profiler can tell them apart.
//
//go:noinline
func hotAcquire(m *native.Mutex) {
	m.Lock()
	m.Unlock()
}

//go:noinline
func coldAcquire(m *native.Mutex) {
	m.Lock()
	m.Unlock()
}

// hotLoop is small enough to be inlined into its caller, so the hot
// site's stacks carry an inlined frame: the profiler must report it
// once, not expand it again.
func hotLoop(m *native.Mutex, n int) {
	for k := 0; k < n; k++ {
		hotAcquire(m)
	}
}

// twoSiteWorkload contends m from two call sites, hot (6 goroutines x 8
// acquisitions) and cold (2 goroutines x 1), while the main goroutine
// holds the lock long enough that every acquisition is contended.
func twoSiteWorkload(t *testing.T, m *native.Mutex) {
	t.Helper()
	m.Lock()
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			hotLoop(m, 8)
		}()
	}
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			coldAcquire(m)
		}()
	}
	time.Sleep(30 * time.Millisecond)
	m.Unlock()
	wg.Wait()
}

// foldedRe matches one collapsed-stack line: frames joined by ';', a
// space, a positive count.
var foldedRe = regexp.MustCompile(`^[^ ]+(;[^ ]+)* [0-9]+$`)

func TestProfilerTwoSites(t *testing.T) {
	m := native.MustNew(native.CombinedPolicy, native.FIFO)
	p := NewRegistry().RegisterNative("profiled", m).Profile(1).Profiler()
	twoSiteWorkload(t, m)

	top := p.Top(0)
	if len(top) < 2 {
		t.Fatalf("Top = %d site(s), want >= 2 (hot and cold)", len(top))
	}
	if !strings.Contains(top[0].Site, "hotAcquire") {
		t.Errorf("hottest site = %q, want hotAcquire", top[0].Site)
	}
	var hot, cold *Site
	for i := range top {
		switch {
		case strings.Contains(top[i].Site, "hotAcquire"):
			hot = &top[i]
		case strings.Contains(top[i].Site, "coldAcquire"):
			cold = &top[i]
		}
	}
	if hot == nil || cold == nil {
		t.Fatalf("sites missing: hot=%v cold=%v (all: %+v)", hot, cold, top)
	}
	if hot.Count <= cold.Count {
		t.Errorf("hot count %d not above cold count %d", hot.Count, cold.Count)
	}
	// 6x8 hot acquisitions; the first per goroutine is certainly
	// contended (main holds the lock), the rest usually are. Require a
	// healthy majority to catch a profiler that drops samples.
	if hot.Count < 6 {
		t.Errorf("hot count = %d, want >= 6", hot.Count)
	}
	// No lock- or sink-internal frames may survive trimming.
	for _, s := range top {
		for _, f := range s.Stack {
			if strings.HasPrefix(f, "repro/internal/native.") || strings.HasPrefix(f, "repro/internal/telemetry.(*") {
				t.Errorf("site %q: internal frame %q not trimmed", s.Site, f)
			}
		}
		if len(s.Stack) == 0 {
			t.Errorf("site %q has an empty stack", s.Site)
		}
		// The workload does not recurse: a frame repeated back to back
		// is an inlined call expanded twice.
		for i := 1; i < len(s.Stack); i++ {
			if s.Stack[i] == s.Stack[i-1] {
				t.Errorf("site %q: frame %q doubled in stack %v", s.Site, s.Stack[i], s.Stack)
			}
		}
	}
}

func TestProfilerFoldedFormat(t *testing.T) {
	m := native.MustNew(native.CombinedPolicy, native.FIFO)
	p := NewRegistry().RegisterNative("profiled", m).Profile(1).Profiler()
	twoSiteWorkload(t, m)

	folded := p.Folded()
	if folded == "" {
		t.Fatal("empty folded output after contended workload")
	}
	seenHot := false
	for _, line := range strings.Split(strings.TrimSuffix(folded, "\n"), "\n") {
		if !foldedRe.MatchString(line) {
			t.Errorf("folded line does not parse: %q", line)
		}
		if strings.Contains(line, "hotAcquire") {
			seenHot = true
		}
	}
	if !seenHot {
		t.Error("no folded line mentions hotAcquire")
	}

	// A root frame prefixes every line.
	rooted := FoldedStacks(p.Top(0), "my lock")
	for _, line := range strings.Split(strings.TrimSuffix(rooted, "\n"), "\n") {
		if !strings.HasPrefix(line, "my_lock;") {
			t.Errorf("rooted line missing escaped root: %q", line)
		}
		if !foldedRe.MatchString(line) {
			t.Errorf("rooted line does not parse: %q", line)
		}
	}
}

func TestProfilerSamplingRate(t *testing.T) {
	m := native.MustNew(native.CombinedPolicy, native.FIFO)
	p := NewRegistry().RegisterNative("profiled", m).Profile(4).Profiler()
	twoSiteWorkload(t, m)

	// 1-in-4 sampling: far fewer samples than the ~50 contended
	// acquisitions, but more than zero.
	n := p.Samples()
	if n == 0 {
		t.Fatal("rate-4 profiler sampled nothing")
	}
	st := m.Stats()
	if n > st.Contended/2 {
		t.Errorf("rate-4 profiler took %d samples of %d contended acquisitions", n, st.Contended)
	}
}
