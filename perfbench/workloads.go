package main

import (
	"fmt"
	"time"

	"bakerypp/internal/gcl"
	"bakerypp/internal/harness"
	"bakerypp/internal/mc"
	"bakerypp/internal/scenario"
	"bakerypp/internal/specs"
)

// A cell is one configuration of a workload. setup does everything before
// the timed call (building the program and planning the analysis, or
// resolving and validating the scenario) and returns that call.
type cell interface {
	setup(tr *tracer) (mainCall, error)
}

// mainCall is a workload's timed call: it runs the program to its verdict
// or report and checks the output against the pinned values.
type mainCall func(tr *tracer, seed int64) outcome

// outcome is what one timed call produced. items is the work counted by
// the throughput metric; problems lists every mismatch with a pinned
// verdict, count or fingerprint. The remaining fields feed the traced
// run's per-layer metrics.
type outcome struct {
	wall     float64 // seconds, set by whoever timed the call
	items    float64
	problems []string
	prog     *gcl.Prog

	check    *mc.Result
	heapPeak float64 // peak heap-object bytes above the pre-call level

	graph *graphFacts

	service *scenario.Result
	spec    *scenario.Spec
}

type workload struct {
	name string
	// full is the measured configuration; tiny is the quick test's, and
	// also the reference probe for this workload's layer group on the
	// other workloads' traced runs.
	full, tiny cell
}

var workloads = []workload{
	{
		name: "verify-full",
		full: verifyCell{N: 4, M: 2, Workers: 0, States: 1572204, Transitions: 5504088, Depth: 116},
		tiny: verifyCell{N: 3, M: 2, Workers: 0, States: 36342, Transitions: 97521, Depth: 75},
	},
	{
		name: "verify-sym",
		full: verifyCell{N: 6, M: 2, Symmetry: true, POR: true, Workers: 2, States: 109170, Transitions: 498669, Depth: 68},
		tiny: verifyCell{N: 3, M: 2, Symmetry: true, POR: true, Workers: 2, States: 948, Transitions: 2303, Depth: 38},
	},
	{
		name: "livelock",
		full: livelockCell{N: 4, M: 2, Starve: 3, First: 3, Second: 0, GraphStates: 18489, ComponentStates: 17386, FCFSStates: 302545},
		tiny: livelockCell{N: 3, M: 2, Starve: 2, First: 2, Second: 0, GraphStates: 2552, ComponentStates: 672, FCFSStates: 18318},
	},
	{
		name: "lockservice",
		full: serviceCell{Preset: "fleet1m", Workers: 2, Seed1Events: 23998488, Seed1Fingerprint: "7320deab8aee7714"},
		tiny: serviceCell{Preset: "smoke", Workers: 2, Seed1Events: 720000, Seed1Fingerprint: "b7fcb2b12fec14e0"},
	},
}

func (w workload) cell(tiny bool) cell {
	if tiny {
		return w.tiny
	}
	return w.full
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.name
	}
	return out
}

// verifyCell is a safety check of Bakery++ for mutual exclusion and no
// register overflow, with its pinned result.
type verifyCell struct {
	N, M          int
	Symmetry, POR bool
	Workers       int

	States, Transitions, Depth int
}

func (c verifyCell) options(workers int) mc.Options {
	return mc.Options{
		Invariants: []mc.Invariant{mc.Mutex(), mc.NoOverflow()},
		Workers:    workers,
		Symmetry:   c.Symmetry,
		POR:        c.POR,
	}
}

func (c verifyCell) setup(tr *tracer) (mainCall, error) {
	p, err := getProg(tr, c.N, c.M)
	if err != nil {
		return nil, err
	}
	opts := c.options(c.Workers)
	id := tr.begin("mc", "mc.PlanFor")
	_, err = mc.PlanFor(p, opts, mc.SafetyAnalysis{Invariants: opts.Invariants})
	tr.end(id, nil)
	if err != nil {
		return nil, fmt.Errorf("planning the safety check: %w", err)
	}
	return func(tr *tracer, _ int64) outcome {
		var heap *heapSampler
		if tr != nil {
			heap = startHeapSampler()
		}
		id := tr.begin("mc", "mc.Check")
		res := mc.Check(p, opts)
		tr.end(id, map[string]float64{"states": float64(res.States), "transitions": float64(res.Transitions)})
		out := outcome{items: float64(res.States), problems: c.verify(res), prog: p, check: res}
		if heap != nil {
			out.heapPeak = heap.stop()
		}
		return out
	}, nil
}

// verify compares a check result with the cell's pinned verdict and counts.
func (c verifyCell) verify(res *mc.Result) []string {
	var bad []string
	if res.Violation != nil || res.Deadlock != nil || !res.Complete {
		bad = append(bad, "verdict: "+res.String())
	}
	if res.States != c.States || res.Transitions != c.Transitions || res.Depth != c.Depth {
		bad = append(bad, fmt.Sprintf("counts: got %d states, %d transitions, depth %d; want %d, %d, %d",
			res.States, res.Transitions, res.Depth, c.States, c.Transitions, c.Depth))
	}
	if res.Symmetry != c.Symmetry || res.POR != c.POR {
		bad = append(bad, fmt.Sprintf("reductions: got symmetry=%v por=%v; want %v, %v",
			res.Symmetry, res.POR, c.Symmetry, c.POR))
	}
	return bad
}

// livelockCell is the paper's Section 6.3 livelock search on the symmetry
// quotient followed by the FCFS monitor product, with their pinned results.
type livelockCell struct {
	N, M          int
	Starve        int // the pid pinned at l1
	First, Second int // the FCFS pair

	GraphStates, ComponentStates, FCFSStates int
}

// graphFacts are the livelock workload's per-call measurements.
type graphFacts struct {
	buildS, searchS, fcfsS float64
	states                 int
	components             int
	fcfsStates             int
	liveBytes              float64 // heap held by the graph; traced runs only
}

func (c livelockCell) setup(tr *tracer) (mainCall, error) {
	p, err := getProg(tr, c.N, c.M)
	if err != nil {
		return nil, err
	}
	l1 := -1
	if at := specs.LivenessOf(p).StarveAt; at != "" {
		l1 = p.LabelIndex(at)
	}
	if l1 < 0 {
		return nil, fmt.Errorf("%s declares no gate label to starve at", p.Name)
	}
	graphOpts := mc.Options{Symmetry: true}
	fcfsOpts := mc.Options{Invariants: []mc.Invariant{mc.Mutex(), mc.NoOverflow()}, Symmetry: true}
	id := tr.begin("mc", "mc.PlanFor")
	_, err = mc.PlanFor(p, graphOpts, mc.GraphAnalysis{})
	if err == nil {
		_, err = mc.PlanFor(p, fcfsOpts, mc.FCFSAnalysis{First: c.First, Second: c.Second})
	}
	tr.end(id, nil)
	if err != nil {
		return nil, fmt.Errorf("planning the livelock analyses: %w", err)
	}
	var fast []int
	for pid := 0; pid < p.N; pid++ {
		if pid != c.Starve {
			fast = append(fast, pid)
		}
	}
	starved := func(pr *gcl.Prog, s gcl.State) bool { return pr.PC(s, c.Starve) == l1 }

	return func(tr *tracer, _ int64) outcome {
		var f graphFacts
		var out outcome
		var live0 float64
		if tr != nil {
			live0 = liveHeap()
		}
		start := time.Now()
		id := tr.begin("mc", "mc.BuildGraph")
		g, err := mc.BuildGraph(p, graphOpts)
		f.buildS = time.Since(start).Seconds()
		if err != nil {
			tr.end(id, nil)
			out.problems = append(out.problems, "BuildGraph: "+err.Error())
			return out
		}
		f.states = g.NumStates()
		tr.end(id, map[string]float64{"states": float64(f.states)})
		if tr != nil {
			f.liveBytes = liveHeap() - live0
		}

		start = time.Now()
		id = tr.begin("mc", "mc.Graph.FindStarvation")
		rep := g.FindStarvation(starved, fast)
		f.searchS = time.Since(start).Seconds()
		if rep != nil {
			f.components = rep.ComponentSize
		}
		tr.end(id, map[string]float64{"component_states": float64(f.components)})

		start = time.Now()
		id = tr.begin("mc", "mc.CheckFCFS")
		fr, err := mc.CheckFCFS(p, c.First, c.Second, fcfsOpts)
		f.fcfsS = time.Since(start).Seconds()
		if err != nil {
			tr.end(id, nil)
			out.problems = append(out.problems, "CheckFCFS: "+err.Error())
			return out
		}
		f.fcfsStates = fr.States
		tr.end(id, map[string]float64{"product_states": float64(fr.States)})

		out.items = float64(f.states + f.fcfsStates)
		out.prog = p
		out.graph = &f
		out.problems = c.verify(g, rep, fr)
		return out
	}, nil
}

func (c livelockCell) verify(g *mc.Graph, rep *mc.StarvationReport, fr *mc.FCFSResult) []string {
	var bad []string
	if !g.Quotient() || g.NumStates() != c.GraphStates {
		bad = append(bad, fmt.Sprintf("graph: got %d states (quotient=%v); want a %d-state quotient",
			g.NumStates(), g.Quotient(), c.GraphStates))
	}
	switch {
	case rep == nil:
		bad = append(bad, "starvation: no livelock cycle found; want one")
	case rep.ComponentSize != c.ComponentStates || !rep.Quotient || rep.MovesByPid[c.Starve] != 0:
		bad = append(bad, fmt.Sprintf("starvation: got a %d-state component (quotient=%v, moves %v); want %d states with pid %d still",
			rep.ComponentSize, rep.Quotient, rep.MovesByPid, c.ComponentStates, c.Starve))
	}
	if !fr.Holds || !fr.Complete || !fr.Symmetry || fr.States != c.FCFSStates {
		bad = append(bad, "fcfs: got "+fr.String()+fmt.Sprintf("; want holds over %d pinned-symmetry product states", c.FCFSStates))
	}
	return bad
}

// serviceCell is a lock-service scenario preset. Its counts depend on the
// seed; at seed 1 the event count and report fingerprint are pinned, and at
// every seed the accounting invariants are checked.
type serviceCell struct {
	Preset  string
	Workers int

	Seed1Events      int64
	Seed1Fingerprint string
}

func (c serviceCell) setup(tr *tracer) (mainCall, error) {
	id := tr.begin("harness", "harness.ResolveScenario")
	spec, err := harness.ResolveScenario(c.Preset)
	if err == nil {
		err = spec.Validate()
	}
	tr.end(id, nil)
	if err != nil {
		return nil, err
	}
	return func(tr *tracer, seed int64) outcome {
		res, err := runScenario(tr, spec, seed, c.Workers)
		if err != nil {
			return outcome{problems: []string{"scenario.Run: " + err.Error()}}
		}
		return outcome{items: float64(res.Events), problems: c.verify(res, seed), service: res, spec: spec}
	}, nil
}

func runScenario(tr *tracer, spec *scenario.Spec, seed int64, workers int) (*scenario.Result, error) {
	id := tr.begin("scenario", "scenario.Run")
	res, err := scenario.Run(spec, scenario.Options{Seed: seed, Workers: workers})
	if err != nil {
		tr.end(id, nil)
		return nil, err
	}
	tr.end(id, map[string]float64{"events": float64(res.Events), "grants": float64(res.Grants()), "workers": float64(workers)})
	return res, nil
}

// verify checks the report's accounting at any seed, and the pinned event
// count and fingerprint at seed 1.
func (c serviceCell) verify(res *scenario.Result, seed int64) []string {
	var bad []string
	var arrivals int64
	for _, cl := range res.Classes {
		arrivals += cl.Arrivals
		if cl.Stranded() != 0 {
			bad = append(bad, fmt.Sprintf("class %s: %d arrivals, %d rejected, %d grants, %d stranded",
				cl.Name, cl.Arrivals, cl.Rejected, cl.Grants, cl.Stranded()))
		}
	}
	if arrivals != res.Spec.Clients {
		bad = append(bad, fmt.Sprintf("arrivals: got %d; want one per client, %d", arrivals, res.Spec.Clients))
	}
	if res.MaxConcurrency > 1 || res.Overflows != 0 || res.FCFSViolations != 0 {
		bad = append(bad, fmt.Sprintf("safety: max concurrency %d, overflows %d, FCFS violations %d",
			res.MaxConcurrency, res.Overflows, res.FCFSViolations))
	}
	if seed == 1 && (res.Events != c.Seed1Events || res.Fingerprint() != c.Seed1Fingerprint) {
		bad = append(bad, fmt.Sprintf("seed 1: got %d events, fingerprint %s; want %d, %s",
			res.Events, res.Fingerprint(), c.Seed1Events, c.Seed1Fingerprint))
	}
	return bad
}

func getProg(tr *tracer, n, m int) (*gcl.Prog, error) {
	id := tr.begin("specs", "specs.Get")
	p, err := specs.Get("bakerypp", specs.Config{N: n, M: m})
	tr.end(id, nil)
	if err != nil {
		return nil, fmt.Errorf("building bakerypp N=%d M=%d: %w", n, m, err)
	}
	return p, nil
}
