package mc

import (
	"fmt"
	"time"

	"bakerypp/internal/gcl"
)

// Edge is one transition of the reachability graph, 16 pointer-free bytes:
// the GC never scans the adjacency lists, and edge comparisons are integer
// compares. Render its label with Graph.EdgeLabel.
type Edge struct {
	To int32
	// Pid is the moving process in the SOURCE state's slot coordinates.
	Pid int8
	// Enter records that the transition took a branch tagged "cs-enter",
	// the critical-section entries FindNoProgress filters out. It sits in
	// the padding after Pid.
	Enter bool
	// LabelIdx is the source label's index in the program's label table
	// (crashLabelIdx for crash pseudo-transitions).
	LabelIdx int32
	// Perm, on a symmetry-reduced (quotient) graph, is the index of the
	// permutation ρ relating the concrete successor t to the stored
	// representative of its orbit: NormalizeCursors(t) =
	// Permute(NormalizeCursors(State(To)), ρ). Index 0 is the identity —
	// in particular every edge to a fresh state, and every edge of an
	// unreduced graph. The quotient-product liveness analyses compose
	// these annotations along paths to recover concrete pid identities
	// (see quotient.go). int32 because indices range over N! — up to
	// 40320 at the N=8 table cap, past int16.
	Perm int32
}

// Graph is the full reachability graph of a program, built by BuildGraph.
// States are indexed densely in BFS discovery order; index 0 is the initial
// state.
type Graph struct {
	// Summary carries the same statistics a Check would produce (states,
	// transitions, first invariant violation if any).
	Summary *Result
	expl    *explorer
	Adj     [][]Edge
	// prod caches the tracking product (quotient.go) across the cycle
	// analyses: it is immutable once built and dominates any single SCC
	// pass, so FindStarvation followed by FindNoProgress must not pay the
	// construction twice. Graphs are not safe for concurrent analysis
	// calls (they never were: the analyses share the explorer's scratch).
	prod *product
}

// NumStates returns the number of reachable states.
func (g *Graph) NumStates() int { return g.expl.numStates() }

// EdgeLabel renders an edge's action label ("CRASH" for crash edges).
func (g *Graph) EdgeLabel(e Edge) string { return g.expl.labelName(e.LabelIdx) }

// State returns the state at a graph index.
func (g *Graph) State(i int) gcl.State { return g.expl.stateAt(int32(i)) }

// BuildGraph explores the complete reachable state space of p and returns
// its transition graph. Unlike Check it does not stop at invariant
// violations (Summary.Violation still records the first one found); it
// fails only if the state bound is exceeded, since an incomplete graph
// would make cycle analysis meaningless, or if the spill arena cannot be
// created. Its per-head step appends every successor's edge, recording
// whether the taken branch entered the critical section; state
// numbering and edge order are identical for any Options.Workers. The
// reduction plan comes from the pipeline's GraphAnalysis declaration: POR
// never applies (the graph analyses — SCCs, starvation and no-progress
// cycles — quantify over every interleaving, which a partial-order-reduced
// graph by design omits), but symmetry does — the result is then the
// QUOTIENT graph, one state per encountered orbit, with
// permutation-annotated edges the cycle analyses lift concrete pid
// identities through (quotient.go).
func BuildGraph(p *gcl.Prog, opts Options) (*Graph, error) {
	start := time.Now()
	plan, err := planFor(p, opts, GraphAnalysis{Invariants: opts.Invariants})
	if err != nil {
		return nil, err
	}
	e, err := newExplorer(p, opts, plan)
	if err != nil {
		return nil, err
	}
	res := &Result{Prog: p, Symmetry: e.symmetry}
	g := &Graph{Summary: res, expl: e, Adj: [][]Edge{nil}}
	if v := e.start(); v >= 0 {
		res.Violation = e.violation(v, 0)
	}
	complete := e.explore(func(head int32, x *expansion) bool {
		if e.numStates() > e.opts.MaxStates {
			return false
		}
		res.Depth = int(e.depthOf(head))
		for i := range x.succs {
			res.Transitions++
			idx, fresh := e.number(head, x, i)
			if fresh {
				g.Adj = append(g.Adj, nil)
				if res.Violation == nil {
					if v := e.violated(x, i); v >= 0 {
						res.Violation = e.violation(v, idx)
					}
				}
			}
			sc := &x.succs[i]
			g.Adj[head] = append(g.Adj[head], Edge{To: idx, Pid: int8(sc.Pid), Enter: sc.Tag == "cs-enter",
				LabelIdx: sc.LabelIdx, Perm: e.edgePermIdx(x.preps[i].perm, idx, fresh)})
		}
		return true
	})
	if !complete {
		return nil, fmt.Errorf("mc: %s: state bound %d exceeded while building graph",
			p.Name, e.opts.MaxStates)
	}
	res.States = e.numStates()
	res.Store = e.storeReport()
	res.Complete = true
	res.Elapsed = time.Since(start)
	return g, nil
}

// Quotient reports whether the graph is symmetry-reduced: states are orbit
// representatives and edges carry permutation annotations. The cycle
// analyses below automatically run orbit-aware on such graphs.
func (g *Graph) Quotient() bool { return g.expl.trackPerms }

// Trace reconstructs the BFS path from the initial state to graph index i.
func (g *Graph) Trace(i int) Trace { return g.expl.trace(int32(i)) }

// numNodes, degree, edge and depthOf make the full graph a cycleGraph
// for the shared SCC engine (cycles.go).
func (g *Graph) numNodes() int32                { return int32(len(g.Adj)) }
func (g *Graph) degree(v int32) int32           { return int32(len(g.Adj[v])) }
func (g *Graph) depthOf(v int32) int32          { return g.expl.depthOf(v) }
func (g *Graph) edge(v, ei int32) (int32, int8) { e := &g.Adj[v][ei]; return e.To, e.Pid }

// StarvationReport describes a reachable cycle on which a predicate holds
// forever while a given set of processes keeps taking steps — the shape of
// the paper's Section 6.3 scenario ("the two fast processes keep competing
// ... and they reach M again" while the slow process never leaves L1).
type StarvationReport struct {
	// ComponentSize is the number of states in the witnessing SCC — full
	// states on an unreduced graph, product states (orbit representative ×
	// tracking permutation) on a quotient graph.
	ComponentSize int
	// EntryLen is the number of steps from the initial state to the
	// component.
	EntryLen int
	// Entry is the path from the initial state into the component. It is
	// always a concrete execution; on a quotient graph it is replayed from
	// the product lasso and re-verified step by step (quotient.go).
	Entry Trace
	// MovesByPid counts, for each process, the transitions it owns inside
	// the component. On a quotient graph pids are CONCRETE identities,
	// recovered through the edges' permutation annotations.
	MovesByPid []int
	// Component lists the graph indices of the component's states, so
	// callers can assert additional properties (e.g. that the starved
	// process is genuinely blocked somewhere on the cycle, ruling out
	// plain unfair-scheduler starvation). On a quotient graph these are
	// the distinct orbit representatives the product component touches.
	Component []int32
	// Quotient reports the analysis ran orbit-aware on the quotient graph.
	Quotient bool
	// Cycle, on a quotient graph, is the concrete execution closing the
	// lasso: starting from Entry's final state, every listed step is a
	// real transition, the predicate holds throughout, every mustMove pid
	// moves, and the final state revisits the starting state's orbit
	// position — verified by execution before the report is returned.
	// Unreduced analyses leave it nil (the SCC itself is the witness).
	Cycle []Step
}

// FindStarvation searches for a reachable strongly connected component with
// at least one edge, all of whose states satisfy pred, and inside which
// every process in mustMove takes at least one step. It returns nil if no
// such component exists — in particular when mustMove names a pid outside
// [0, N). pred typically pins the starved process to a label (e.g. "pc of
// process 2 is l1") while mustMove lists the fast processes. Both graph
// kinds run the shared fair-component scan (cycles.go).
//
// On a quotient graph (BuildGraph under symmetry) the search runs on the
// permutation-tracked product, so pred still reads CONCRETE pid positions:
// it is evaluated on the orbit representative permuted back into the
// concrete frame of each path that reaches it. Predicates must not depend
// on dead scan-cursor values (normalized away in orbit keys); pc- and
// shared-value predicates are unaffected. A found lasso is replayed to a
// concrete full-space execution and re-verified before being reported.
func (g *Graph) FindStarvation(pred func(p *gcl.Prog, s gcl.State) bool, mustMove []int) *StarvationReport {
	if g.Quotient() {
		return g.findStarvationQuotient(pred, mustMove)
	}
	ok := make([]bool, len(g.Adj))
	for i := range ok {
		ok[i] = pred(g.expl.p, g.expl.stateAt(int32(i)))
	}
	c := findFair(g, g.expl.p.N, func(v int32) bool { return ok[v] }, nil, mustMove, nil)
	if c == nil {
		return nil
	}
	return &StarvationReport{
		ComponentSize: len(c.nodes),
		EntryLen:      int(g.expl.depthOf(c.entry)),
		Entry:         g.expl.trace(c.entry),
		MovesByPid:    c.moves,
		Component:     c.nodes,
	}
}

// NoProgressReport describes a reachable cycle on which every listed
// process keeps taking steps yet no critical-section entry ever happens —
// a global livelock. For Bakery++ its absence (a nil report with mustMove =
// all processes) means the algorithm cannot spin forever without service
// under weak fairness: any cycle that starves one process still serves the
// others (the Section 6.3 cycle found by FindStarvation has cs-enter edges
// for the fast pair).
type NoProgressReport struct {
	// ComponentSize counts full states on an unreduced graph, product
	// states on a quotient graph.
	ComponentSize int
	// MovesByPid attributes component-internal moves to CONCRETE pids (on
	// a quotient graph, recovered through the edge permutations).
	MovesByPid []int
	Entry      Trace
	// Quotient/Cycle: as in StarvationReport — set on quotient graphs,
	// where the replayed concrete cycle (no cs-enter step, every mustMove
	// pid moving, orbit position revisited) is verified by execution.
	Quotient bool
	Cycle    []Step
}

// FindNoProgress searches for a reachable SCC with at least one edge, in
// which every process in mustMove takes a step but no edge carries the
// "cs-enter" tag. It returns nil when no such component exists. On a
// quotient graph the search runs on the permutation-tracked product
// exactly like FindStarvation, with found lassos replayed and re-verified.
func (g *Graph) FindNoProgress(mustMove []int) *NoProgressReport {
	if g.Quotient() {
		return g.findNoProgressQuotient(mustMove)
	}
	// A qualifying cycle avoids entries entirely: filter out cs-enter
	// edges.
	c := findFair(g, g.expl.p.N, nil, func(v, ei int32) bool { return !g.Adj[v][ei].Enter },
		mustMove, nil)
	if c == nil {
		return nil
	}
	return &NoProgressReport{
		ComponentSize: len(c.nodes),
		MovesByPid:    c.moves,
		Entry:         g.expl.trace(c.entry),
	}
}
