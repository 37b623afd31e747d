package mc

// Hot-path performance contracts for the exploration loop's owner-computes
// mesh: once warmed up, the expand stage's inbox routing and the
// owners' drain pass must run essentially allocation-free — the engine
// executes them for every generated successor, millions of times per run.

import (
	"testing"

	"bakerypp/internal/specs"
)

// TestInboxPushDrainAllocFree pins the per-candidate cost of the
// owner-computes mesh at ~0 allocations: re-expanding a warmed chunk —
// successor generation, batched canonical prep, inbox push, and the
// owners' drain lookups plus invariant pre-evaluation — amortizes to less
// than a few hundredths of an allocation per routed candidate (the
// residue is the per-chunk goroutine spawn and pprof label plumbing, paid
// once per thousands of candidates).
func TestInboxPushDrainAllocFree(t *testing.T) {
	p := specs.BakeryPP(specs.Config{N: 3, M: 2})
	opts := Options{Workers: 2, Invariants: []Invariant{Mutex(), NoOverflow()}}
	plan, err := planFor(p, opts, SafetyAnalysis{})
	if err != nil {
		t.Fatal(err)
	}
	e, err := newExplorer(p, opts, plan)
	if err != nil {
		t.Fatal(err)
	}
	e.start()

	// Drive the real exploration loop far enough to number a multi-worker
	// chunk's worth of states and populate the store.
	e.explore(func(head int32, x *expansion) bool {
		for i := range x.succs {
			e.number(head, x, i)
		}
		return e.numStates() < 4096
	})
	if e.numStates() < 512 {
		t.Fatalf("state space too small to exercise the mesh path: %d states", e.numStates())
	}

	// Re-expanding an already-merged range is side-effect free (expansion
	// and drain write only worker scratch and advisory verdicts) and hits
	// the exact steady-state path: every slab, inbox, and expansion slot
	// has its capacity.
	var cands int
	sweep := func() {
		exps := e.expandChunk(0, 512)
		cands = 0
		for i := range exps {
			cands += len(exps[i].succs)
		}
	}
	sweep() // warm remaining capacity
	if cands < 512 {
		t.Fatalf("expected a dense candidate load, got %d candidates", cands)
	}
	avg := testing.AllocsPerRun(20, sweep)
	if perCand := avg / float64(cands); perCand > 0.05 {
		t.Errorf("inbox push/drain allocates %.3f objects per candidate (%.1f per %d-candidate sweep), want ~0",
			perCand, avg, cands)
	}
}
