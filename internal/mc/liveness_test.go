package mc

import (
	"testing"
	"unsafe"

	"bakerypp/internal/gcl"
	"bakerypp/internal/specs"
)

func allPids(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// E7 strengthening: Bakery++ admits no GLOBAL livelock — there is no
// reachable cycle on which every process keeps moving yet nobody ever
// enters the critical section. Together with TestStarvationAtL1 this gives
// the full Section 6.3 picture: an individual slow process can starve at
// L1, but the system as a whole always keeps serving customers.
func TestBakeryPPNoGlobalLivelock(t *testing.T) {
	for _, cfg := range []specs.Config{{N: 2, M: 2}, {N: 3, M: 2}, {N: 3, M: 3}} {
		p := specs.BakeryPP(cfg)
		g, err := BuildGraph(p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if rep := g.FindNoProgress(allPids(p.N)); rep != nil {
			t.Errorf("N=%d M=%d: global livelock of %d states, moves %v",
				cfg.N, cfg.M, rep.ComponentSize, rep.MovesByPid)
		}
	}
}

// Ablation 4 finding (DESIGN.md): WITHOUT the L1 gate, Bakery++ has a
// global livelock — a reachable cycle in which all three processes keep
// re-choosing tickets at the bound and resetting, and nobody ever enters
// the critical section. Safety never needed the gate (E1 verifies the
// nogate variant); this shows the gate is what buys global progress. The
// paper introduces the gate without separating the two roles; the model
// checker separates them mechanically.
func TestNoGateAblationHasGlobalLivelock(t *testing.T) {
	p := specs.BakeryPP(specs.Config{N: 3, M: 2, NoGate: true})
	g, err := BuildGraph(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep := g.FindNoProgress(allPids(3))
	if rep == nil {
		t.Fatal("expected a reset livelock in the gateless variant")
	}
	for pid, m := range rep.MovesByPid {
		if m == 0 {
			t.Errorf("process %d does not move in the livelock component", pid)
		}
	}
	t.Logf("gateless livelock: %d states, moves %v, entry depth %d",
		rep.ComponentSize, rep.MovesByPid, rep.Entry.Len())

	// Two processes already suffice: the resetter's stored maximum (= M)
	// persists until its own reset commits, so each process's scan keeps
	// observing the other's saturated ticket and both reset forever.
	p2 := specs.BakeryPP(specs.Config{N: 2, M: 2, NoGate: true})
	g2, err := BuildGraph(p2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep := g2.FindNoProgress(allPids(2)); rep == nil {
		t.Error("expected the 2-process gateless reset livelock")
	}
}

// Question Two connection (paper Section 8.2): Bakery++ admits ACTIVE
// individual starvation — a reachable cycle in which a process keeps taking
// steps (scans, resets; weak fairness satisfied) yet never enters its
// critical section, because every overflow reset discards its ticket and
// with it the FCFS protection of the pending attempt. Classic Bakery has no
// such cycle structurally: once a ticket is taken it is never given up, so
// a process that keeps moving must pass through cs. This is the liveness
// price of boundedness, sharper than Section 6.3's slow-process scenario
// (which requires the starved process to be blocked).
func TestBakeryPPActiveStarvation(t *testing.T) {
	p := specs.BakeryPP(specs.Config{N: 3, M: 2})
	g, err := BuildGraph(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cs := p.LabelIndex("cs")
	rep := g.FindStarvation(func(pr *gcl.Prog, s gcl.State) bool {
		return pr.PC(s, 2) != cs
	}, allPids(3))
	if rep == nil {
		t.Fatal("expected an active-starvation cycle at M=2")
	}
	if rep.MovesByPid[2] == 0 {
		t.Error("the starved process should be moving (that is the point)")
	}
	t.Logf("active starvation: %d states, moves %v", rep.ComponentSize, rep.MovesByPid)
}

// Positive control: a program whose processes spin forever without a
// critical section is detected.
func TestFindNoProgressPositiveControl(t *testing.T) {
	p := gcl.New("spinner", 2)
	p.SharedVar("x", 0)
	p.Label("ncs", gcl.Goto("a"))
	p.Label("a", gcl.Goto("ncs", gcl.Set("x", gcl.Sub(gcl.C(1), gcl.Sh("x")))))
	p.MustBuild()
	g, err := BuildGraph(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep := g.FindNoProgress(allPids(2))
	if rep == nil {
		t.Fatal("spinner livelock not found")
	}
	if rep.MovesByPid[0] == 0 || rep.MovesByPid[1] == 0 {
		t.Error("both processes should move in the component")
	}
}

// Edge.Enter is recorded at build time from the taken branch's tag; it
// must agree with the tag re-derived from the source state for every edge
// of a full Bakery++ graph, and some edges must carry it.
func TestTagRecovery(t *testing.T) {
	p := specs.BakeryPP(specs.Config{N: 2, M: 2})
	g, err := BuildGraph(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	enters := 0
	for v := range g.Adj {
		for _, e := range g.Adj[v] {
			tag := ""
			for _, sc := range p.Succs(g.State(v), int(e.Pid), gcl.ModeUnbounded, nil) {
				if sc.LabelIdx == e.LabelIdx && sc.State.Equal(g.State(int(e.To))) {
					tag = sc.Tag
					break
				}
			}
			if e.Enter != (tag == "cs-enter") {
				t.Fatalf("edge %d->%d (p%d:%s): Enter=%v, re-derived tag %q",
					v, e.To, e.Pid, g.EdgeLabel(e), e.Enter, tag)
			}
			if e.Enter {
				enters++
			}
		}
	}
	if enters == 0 {
		t.Error("no edge records a cs-enter branch")
	}
}

// The cs-enter bit sits in Edge's padding: adjacency lists stay at 16
// bytes an edge.
func TestEdgeSize(t *testing.T) {
	if got := unsafe.Sizeof(Edge{}); got != 16 {
		t.Errorf("unsafe.Sizeof(Edge{}) = %d, want 16", got)
	}
}

// A mustMove pid outside [0, N) can never move, so no component qualifies:
// both analyses return nil on both graph kinds instead of indexing past
// the per-pid move counts.
func TestMustMoveOutOfRange(t *testing.T) {
	for _, sym := range []bool{false, true} {
		p := specs.BakeryPP(specs.Config{N: 3, M: 2})
		g, err := BuildGraph(p, Options{Symmetry: sym})
		if err != nil {
			t.Fatal(err)
		}
		l1 := p.LabelIndex("l1")
		atL1 := func(pr *gcl.Prog, s gcl.State) bool { return pr.PC(s, 2) == l1 }
		gateless := specs.BakeryPP(specs.Config{N: 3, M: 2, NoGate: true})
		gg, err := BuildGraph(gateless, Options{Symmetry: sym})
		if err != nil {
			t.Fatal(err)
		}
		for _, mustMove := range [][]int{{0, 3}, {-1, 1}} {
			if rep := g.FindStarvation(atL1, mustMove); rep != nil {
				t.Errorf("quotient=%v: FindStarvation(mustMove %v) = %d-state component, want nil",
					sym, mustMove, rep.ComponentSize)
			}
			if rep := gg.FindNoProgress(mustMove); rep != nil {
				t.Errorf("quotient=%v: gateless FindNoProgress(mustMove %v) = %d-state component, want nil",
					sym, mustMove, rep.ComponentSize)
			}
		}
	}
}
