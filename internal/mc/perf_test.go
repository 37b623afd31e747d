package mc

// Hot-path performance contracts for the parallel engine's owner-computes
// machinery: once warmed up, the expand stage's inbox routing and the
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
	pe := newPExplorer(p, opts, plan)
	e := pe.e
	pe.addInit(p.InitState())

	// Drive the real chunked explore/merge loop far enough to number a
	// multi-worker chunk's worth of states and populate the store.
	for merged := 0; merged < e.numStates() && e.numStates() < 4096; {
		lo, hi := int32(merged), int32(e.numStates())
		if hi > lo+maxChunk {
			hi = lo + maxChunk
		}
		merged = int(hi)
		exps := pe.expandRange(lo, hi, true)
		for i := range exps {
			x := &exps[i]
			for ci := range x.cands {
				pe.addNumbered(&x.cands[ci], lo+int32(i))
			}
		}
	}
	if e.numStates() < 512 {
		t.Fatalf("state space too small to exercise the parallel path: %d states", e.numStates())
	}

	// Re-expanding an already-merged range is side-effect free (expansion
	// and drain write only worker scratch and candidate verdicts) and hits
	// the exact steady-state path: every slab, inbox, and expansion slot
	// has its capacity.
	var cands int
	sweep := func() {
		exps := pe.expandRange(0, 512, true)
		cands = 0
		for i := range exps {
			cands += len(exps[i].cands)
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
