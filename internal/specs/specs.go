// Package specs contains the mutual-exclusion algorithms of the paper and
// its related work, written as gcl programs at PlusCal label granularity.
//
// Conventions shared by every specification, relied on by internal/mc and
// internal/sched:
//
//   - The first label is "ncs" (noncritical section / crash-restart target).
//   - A process is inside its critical section exactly while its pc is at
//     the label "cs"; the action at "cs" performs the exit protocol's first
//     step. The mutual-exclusion invariant is CountAtLabel(s, "cs") <= 1.
//   - Branch tags: "try" marks leaving ncs, "doorway-done" marks completing
//     the doorway (ticket acquired, choosing lowered), "cs-enter" marks the
//     transition into cs, "cs-exit" marks leaving cs, and "reset" marks
//     Bakery++'s overflow-avoidance reset (the branch back to L1).
//   - Shared arrays owned one-cell-per-process are marked Own, so crash
//     transitions (paper correctness conditions 3–4) reset them properly.
//
// Process ids are 0-based; the paper's (number[j], j) < (number[i], i)
// tie-break order is preserved because relative order of ids is what
// matters, not their base.
package specs

import (
	"fmt"
	"sort"

	"bakerypp/internal/gcl"
)

// Config carries the knobs shared by the spec constructors. Zero values get
// sensible defaults from Get.
type Config struct {
	// N is the number of processes.
	N int
	// M is the register capacity (largest storable value). Used by Bakery
	// (for overflow accounting), Bakery++ (as the algorithm's constant M),
	// and ModBakery (tickets live in 0..M).
	M int
	// Fine selects the fine-grained doorway: the maximum is computed one
	// register read per atomic step instead of one atomic array read
	// (ablation 1 in DESIGN.md).
	Fine bool
	// SplitReset makes Bakery++'s overflow reset two atomic steps
	// (number[i] := 0, then choosing[i] := 0) instead of one (ablation 2).
	SplitReset bool
	// EqCheck makes Bakery++ compare with = M instead of >= M, valid when
	// reads never exceed M (Section 5's remark; ablation 3).
	EqCheck bool
	// NoGate omits Bakery++'s L1 existential gate, keeping only the
	// pre-increment check (ablation 4). Safety is unaffected; the theorem
	// only needs the pre-increment check.
	NoGate bool
}

// Constructor builds a specification from a configuration.
type Constructor func(Config) *gcl.Prog

var registry = map[string]Constructor{
	"bakery":     func(c Config) *gcl.Prog { return Bakery(c) },
	"bakerypp":   func(c Config) *gcl.Prog { return BakeryPP(c) },
	"blackwhite": func(c Config) *gcl.Prog { return BlackWhite(c.N) },
	"peterson":   func(c Config) *gcl.Prog { return Peterson(c.N) },
	"szymanski":  func(c Config) *gcl.Prog { return Szymanski(c.N) },
	"modbakery":  func(c Config) *gcl.Prog { return ModBakery(c.N, c.M) },
}

// Symmetric reports whether the named specification declares full process
// symmetry (and so supports the model checker's symmetry reduction),
// derived from the group the constructor itself declares on the program.
// The bakery family and Szymanski declare gcl.FullSymmetry. Peterson opts
// out because its victim registers hold pid VALUES — the canonical layer
// relocates pid-indexed cells and blocks but never rewrites stored
// values, so pid-valued cells (or locals) are outside its model
// (gcl.PidLocal covers prefix-counting scan cursors only, not pid-naming
// locals). Black-White opts out because its mixed-colour waiting batches
// drain in concrete id order through both the ticket tie-break and the
// global colour register, which makes orbit merging markedly lossier than
// the bakery family's tie-break-only quasi-symmetry; both double as the
// declared-asymmetric controls for which -symmetry degrades to the full
// search.
func Symmetric(name string) bool {
	p, err := Get(name, Config{})
	return err == nil && p.Symmetry() == gcl.FullSymmetry
}

// Liveness declares which liveness-flavoured analyses a specification
// supports, derived mechanically from its labels and branch tags — the
// declaration the unified analysis pipeline (internal/mc) and the
// experiment harness consult instead of hard-coding per-spec knowledge.
type Liveness struct {
	// StarveAt names the label a pinned slow process can starve at (the
	// paper's Section 6.3 scenario pins Bakery++'s L1 gate); empty when
	// the spec has no such gate label.
	StarveAt string
	// FCFS reports the spec carries the "try"/"doorway-done"/"cs-enter"
	// tags mc.CheckFCFS's monitor automaton observes.
	FCFS bool
	// NoProgress reports cs entries are tagged, so the global no-progress
	// question (mc.(*Graph).FindNoProgress) is well-posed.
	NoProgress bool
}

// LivenessOf derives the liveness declaration of a built program.
func LivenessOf(p *gcl.Prog) Liveness {
	tags := p.BranchTags()
	l := Liveness{
		FCFS:       tags["try"] > 0 && tags["doorway-done"] > 0 && tags["cs-enter"] > 0,
		NoProgress: tags["cs-enter"] > 0,
	}
	if p.HasLabel("l1") {
		l.StarveAt = "l1"
	}
	return l
}

// Arbitrable reports whether a built program can arbitrate the
// lock-service scenario layer (internal/scenario): its event-loop
// accumulator observes the FCFS monitor tags ("try", "doorway-done",
// "cs-enter") plus "cs-exit" to attribute grants, count occupancy and
// detect first-come-first-served inversions, so an algorithm missing any
// of them cannot serve as a scenario backend.
func Arbitrable(p *gcl.Prog) bool {
	tags := p.BranchTags()
	return LivenessOf(p).FCFS && tags["cs-exit"] > 0
}

// Names returns the registered specification names, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Get builds the named specification. N defaults to 2 and M to 4 when
// zero; a negative N or M is an error.
func Get(name string, cfg Config) (*gcl.Prog, error) {
	ctor, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("specs: unknown algorithm %q (have %v)", name, Names())
	}
	if cfg.N < 0 || cfg.M < 0 {
		return nil, fmt.Errorf("specs: %s needs N >= 0 and M >= 0 (0 = default), got N=%d M=%d", name, cfg.N, cfg.M)
	}
	if cfg.N == 0 {
		cfg.N = 2
	}
	if cfg.M == 0 {
		cfg.M = 4
	}
	return ctor(cfg), nil
}

// trialLoop appends the shared trial loop of the bakery family to p:
//
//	for j = 0 .. n-1 {
//	  L2: wait until choosing[j] = 0
//	  L3: wait until number[j] = 0 or (number[i], i) <= (number[j], j)
//	}
//
// It declares labels t1 (loop head), t2 (L2), t3 (L3), t4 (j increment),
// and cs; the caller must have declared "ncs", the local "j", and the shared
// arrays "choosing" and "number". exitEff is the effect of the cs action
// (the exit protocol), which returns to ncs.
func trialLoop(p *gcl.Prog, n int, exitEff ...gcl.Assign) {
	j := gcl.L("j")
	numJ := gcl.ShI("number", j)
	numI := gcl.ShSelf("number")
	p.Label("t1",
		gcl.Br(gcl.Ge(j, gcl.C(n)), "cs").WithTag("cs-enter"),
		gcl.Br(gcl.Lt(j, gcl.C(n)), "t2"),
	)
	p.Label("t2",
		gcl.Br(gcl.Eq(gcl.ShI("choosing", j), gcl.C(0)), "t3"),
	)
	// Proceed when number[j] = 0 or not((number[j], j) < (number[i], i)).
	p.Label("t3",
		gcl.Br(gcl.Or(
			gcl.Eq(numJ, gcl.C(0)),
			gcl.Not(gcl.LexLt(numJ, j, numI, gcl.Self())),
		), "t4"),
	)
	p.Label("t4",
		gcl.Goto("t1", gcl.SetL("j", gcl.Add(j, gcl.C(1)))),
	)
	p.Label("cs",
		gcl.Goto("ncs", exitEff...).WithTag("cs-exit"),
	)
}

// fineMax appends labels computing tmp := max(number[0..n-1]) one register
// read per step, then jumps to next. Requires local "tmp" and "k".
func fineMax(p *gcl.Prog, n int, next string) {
	k := gcl.L("k")
	p.Label("m1",
		gcl.Br(gcl.Lt(k, gcl.C(n)), "m2"),
		gcl.Br(gcl.Ge(k, gcl.C(n)), next),
	)
	p.Label("m2",
		gcl.Goto("m1",
			gcl.SetL("tmp", gcl.Max2(gcl.L("tmp"), gcl.ShI("number", k))),
			gcl.SetL("k", gcl.Add(k, gcl.C(1))),
		),
	)
}
