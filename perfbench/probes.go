package main

import (
	"fmt"
	"slices"
	"time"

	"bakerypp/internal/des"
	"bakerypp/internal/gcl"
	"bakerypp/internal/harness"
	"bakerypp/internal/mc"
	"bakerypp/internal/preempt"
)

// The traced run's per-layer probes. Each layer group — the model
// checker's Check (mc.check/engine/store), its graph products
// (mc.graph/quotient/fcfs) and the lock service (scenario, des) — is
// measured on the traced workload's own calls when it makes them, and on
// the owning workload's tiny cell otherwise (a reference probe, marked in
// the span file), so every per-layer metric is a measured number on every
// workload. The gcl probes run on the workload's own program; the
// des-sweep probe is the same grid everywhere.

const (
	gclPasses    = 5
	gclChunk     = 256 // states per successor batch, as in the engines' chunks
	walkLen      = 256 // random-walk length before restarting at the initial state
	refGCLSample = 2000
)

// maskSink keeps the probed EnabledMask results live.
var maskSink uint64

// gclStats are successor-generation, canonicalization, fingerprint and
// guard costs measured on a sample of a program's reachable states.
type gclStats struct {
	succNsPerState   float64
	succPerState     float64
	canonNsPerSucc   float64
	fpNsPerSucc      float64
	enabledNsPerCall float64
	n                int // processes
}

// sampleStates collects n reachable states by seeded random walks from the
// initial state.
func sampleStates(p *gcl.Prog, seed int64, n int) []gcl.State {
	rng := preempt.Seed64(seed, 0x5A)
	var buf gcl.SuccBuf
	out := make([]gcl.State, 0, n)
	cur, depth := p.InitState(), 0
	for len(out) < n {
		buf.Reset()
		p.AllSuccsInto(cur, gcl.ModeUnbounded, &buf)
		succs := buf.Succs()
		if len(succs) == 0 || depth == walkLen {
			cur, depth = p.InitState(), 0
			continue
		}
		rng = preempt.Xorshift64(rng)
		cur = p.Clone(succs[rng%uint64(len(succs))].State)
		depth++
		out = append(out, cur)
	}
	return out
}

// probeGCL replays AllSuccsInto, CanonicalizeBatch, FingerprintSuccs and
// EnabledMask over the sample in engine-sized batches, and reports each
// call's median cost over gclPasses passes.
func probeGCL(tr *tracer, p *gcl.Prog, seed int64, sample int) (gclStats, error) {
	if !p.CanCanonicalize() {
		return gclStats{}, fmt.Errorf("%s N=%d cannot be canonicalized", p.Name, p.N)
	}
	states := sampleStates(p, seed, sample)
	canon := p.NewCanonicalizer()
	var (
		buf  gcl.SuccBuf
		ks   gcl.KeySlab
		fps  []uint64
		mask uint64
	)
	var succT, canonT, fpT, enT []float64
	var succs int
	for pass := 0; pass < gclPasses; pass++ {
		id := tr.begin("gcl", "gcl probe pass")
		var ts, tc, tf, te time.Duration
		succs = 0
		for lo := 0; lo < len(states); lo += gclChunk {
			chunk := states[lo:min(lo+gclChunk, len(states))]
			buf.Reset()
			t := time.Now()
			for _, s := range chunk {
				p.AllSuccsInto(s, gcl.ModeUnbounded, &buf)
			}
			ts += time.Since(t)
			batch := buf.Succs()
			succs += len(batch)

			ks.Reset()
			t = time.Now()
			canon.CanonicalizeBatch(batch, &ks)
			tc += time.Since(t)

			t = time.Now()
			fps = gcl.FingerprintSuccs(batch, fps)
			tf += time.Since(t)

			t = time.Now()
			for _, s := range chunk {
				for pid := 0; pid < p.N; pid++ {
					mask ^= p.EnabledMask(s, pid, &buf)
				}
			}
			te += time.Since(t)
		}
		tr.end(id, map[string]float64{
			"states": float64(len(states)), "succs": float64(succs), "enabled_calls": float64(len(states) * p.N),
			"succ_ns": float64(ts), "canon_ns": float64(tc), "fp_ns": float64(tf), "enabled_ns": float64(te),
		})
		succT = append(succT, float64(ts))
		canonT = append(canonT, float64(tc))
		fpT = append(fpT, float64(tf))
		enT = append(enT, float64(te))
	}
	maskSink = mask
	ns, nSucc := float64(len(states)), float64(succs)
	return gclStats{
		succNsPerState:   median(succT) / ns,
		succPerState:     nSucc / ns,
		canonNsPerSucc:   median(canonT) / nSucc,
		fpNsPerSucc:      median(fpT) / nSucc,
		enabledNsPerCall: median(enT) / (ns * float64(p.N)),
		n:                p.N,
	}, nil
}

func (g gclStats) put(m map[string]float64) {
	m["gcl.succ.ns_per_state"] = g.succNsPerState
	m["gcl.succ.per_state"] = g.succPerState
	m["gcl.canon.ns_per_succ"] = g.canonNsPerSucc
	m["gcl.fp.ns_per_succ"] = g.fpNsPerSucc
	m["gcl.enabled.ns_per_call"] = g.enabledNsPerCall
}

// runCell sets a cell up and makes its timed call once.
func runCell(tr *tracer, c cell, seed int64) (outcome, error) {
	call, err := c.setup(tr)
	if err != nil {
		return outcome{}, err
	}
	start := time.Now()
	out := call(tr, seed)
	out.wall = time.Since(start).Seconds()
	return out, nil
}

// checkLayers fills the mc Check metrics from out, the cell's own call (or,
// when out is nil, from a fresh run of the cell), then times the engine at
// 0, 1 and 2 workers. g must be measured on the cell's program.
func checkLayers(tr *tracer, c verifyCell, out *outcome, g *gclStats, seed int64, m map[string]float64) ([]string, error) {
	var bad []string // the reference run's own problems; the caller has the workload's
	if out == nil {
		o, err := runCell(tr, c, seed)
		if err != nil {
			return nil, err
		}
		out, bad = &o, o.problems
	}
	res := out.check
	if g == nil {
		st, err := probeGCL(tr, out.prog, seed, refGCLSample)
		if err != nil {
			return nil, err
		}
		g = &st
	}
	engine := map[int]float64{c.Workers: res.Elapsed.Seconds()}
	for _, w := range []int{0, 1, 2} {
		if _, done := engine[w]; done {
			continue
		}
		opts := c.options(w)
		id := tr.begin("mc", "mc.Check")
		r := mc.Check(out.prog, opts)
		tr.end(id, map[string]float64{"states": float64(r.States), "workers": float64(w)})
		engine[w] = r.Elapsed.Seconds()
		for _, p := range c.verify(r) {
			bad = append(bad, fmt.Sprintf("workers=%d %s", w, p))
		}
	}
	states, trans := float64(res.States), float64(res.Transitions)
	m["mc.check_s"] = res.Elapsed.Seconds()
	m["mc.states"] = states
	m["mc.transitions"] = trans
	m["mc.depth"] = float64(res.Depth)
	m["mc.dup_frac"] = 1 - (states-1)/trans
	m["mc.peak_heap.bytes_per_state"] = out.heapPeak / states
	m["mc.engine.w0_s"] = engine[0]
	m["mc.engine.w1_s"] = engine[1]
	m["mc.engine.w2_s"] = engine[2]
	m["mc.engine.speedup"] = engine[1] / engine[2]
	// Derived: the single-threaded engine's time less the replayed gcl cost
	// of its successors and probes (canonicalization includes the
	// fingerprint pass under symmetry).
	probe := g.fpNsPerSucc
	if c.Symmetry {
		probe = g.canonNsPerSucc
	}
	m["mc.store_engine.ns_per_transition"] = (engine[0]*1e9 - states*g.succNsPerState - trans*probe) / trans
	return bad, nil
}

// graphLayers fills the graph, quotient and FCFS metrics.
func graphLayers(tr *tracer, c livelockCell, out *outcome, seed int64, m map[string]float64) ([]string, error) {
	var bad []string // the reference run's own problems; the caller has the workload's
	if out == nil {
		o, err := runCell(tr, c, seed)
		if err != nil {
			return nil, err
		}
		out, bad = &o, o.problems
	}
	f := out.graph
	if f == nil {
		return bad, nil
	}
	m["mc.graph.build_s"] = f.buildS
	m["mc.graph.states"] = float64(f.states)
	m["mc.graph.bytes_per_state"] = f.liveBytes / float64(f.states)
	m["mc.quotient.search_s"] = f.searchS
	m["mc.quotient.component_states"] = float64(f.components)
	m["mc.fcfs_s"] = f.fcfsS
	m["mc.fcfs.product_states"] = float64(f.fcfsStates)
	return bad, nil
}

// scenarioLayers fills the scenario and des-kernel metrics: the report's
// counts, the shard pool at 0 and 2 workers (whose fingerprints must
// agree), the kernel alone at the run's event count and pending depth, and
// the derived per-event residual of the sequential run.
func scenarioLayers(tr *tracer, c serviceCell, out *outcome, g *gclStats, seed int64, m map[string]float64) ([]string, error) {
	var bad []string // the reference run's own problems; the caller has the workload's
	if out == nil {
		o, err := runCell(tr, c, seed)
		if err != nil {
			return nil, err
		}
		out, bad = &o, o.problems
	}
	res := out.service
	if res == nil {
		return bad, nil
	}
	if g == nil {
		p, err := getProg(tr, out.spec.N, out.spec.M)
		if err != nil {
			return nil, err
		}
		st, err := probeGCL(tr, p, seed, refGCLSample)
		if err != nil {
			return nil, err
		}
		g = &st
	}
	start := time.Now()
	seq, err := runScenario(tr, out.spec, seed, 0)
	if err != nil {
		return nil, err
	}
	w0 := time.Since(start).Seconds()
	if seq.Fingerprint() != res.Fingerprint() {
		bad = append(bad, fmt.Sprintf("scenario fingerprint differs across workers: %s at 0, %s at %d",
			seq.Fingerprint(), res.Fingerprint(), c.Workers))
	}
	events := float64(res.Events)
	var arrivals, rejected int64
	for _, cl := range res.Classes {
		arrivals += cl.Arrivals
		rejected += cl.Rejected
	}
	kernelNs := probeKernel(tr, res.Events, out.spec.N+len(out.spec.Classes), seed)
	m["des.kernel.ns_per_event"] = kernelNs
	m["scenario.events"] = events
	m["scenario.grants"] = float64(res.Grants())
	m["scenario.rejected_frac"] = float64(rejected) / float64(arrivals)
	m["scenario.events_per_grant"] = events / float64(res.Grants())
	m["scenario.w0_s"] = w0
	m["scenario.w2_s"] = out.wall
	m["scenario.pool.speedup"] = w0 / out.wall
	// Derived: per event, one single-process SuccsInto and one EnabledMask
	// are charged at their replayed gcl cost, and one kernel At+Step at the
	// kernel probe's.
	perEvent := kernelNs + g.succNsPerState/float64(g.n) + g.enabledNsPerCall
	m["scenario.residual.ns_per_event"] = (w0*1e9 - events*perEvent) / events
	return bad, nil
}

// probeKernel drives a des.Kernel through At/Step for events events with
// depth pending events (one per pid, each rescheduling itself after a
// seeded delay) and returns the cost per event.
func probeKernel(tr *tracer, events int64, depth int, seed int64) float64 {
	id := tr.begin("des", "des.Kernel.At+Step")
	k := des.NewKernel()
	rng := preempt.Seed64(seed, 0xDE5)
	fns := make([]func(), depth)
	for pid := range fns {
		fns[pid] = func() {
			rng = preempt.Xorshift64(rng)
			k.At(pid, int64(rng&15), fns[pid])
		}
		k.At(pid, int64(pid), fns[pid])
	}
	start := time.Now()
	for k.Executed() < events && k.Step() {
	}
	ns := float64(time.Since(start).Nanoseconds()) / float64(k.Executed())
	tr.end(id, map[string]float64{"events": float64(k.Executed()), "depth": float64(depth)})
	return ns
}

// The default des-sweep grid's pinned totals.
const (
	dessweepEvents      = 324010
	dessweepFingerprint = "01475accf5c2799b"
)

// dessweepLayers times harness.RunDESSweep on its default grid,
// sequentially, and checks its pinned event total and table fingerprint.
func dessweepLayers(tr *tracer, m map[string]float64) ([]string, error) {
	cfg := harness.DefaultDESSweep()
	id := tr.begin("harness", "harness.RunDESSweep")
	start := time.Now()
	res, err := harness.RunDESSweep(cfg)
	secs := time.Since(start).Seconds()
	if err != nil {
		tr.end(id, nil)
		return nil, err
	}
	var events int64
	for _, c := range res.Cells {
		events += c.Events
	}
	tr.end(id, map[string]float64{"events": float64(events), "cells": float64(len(res.Cells))})
	m["dessweep.s"] = secs
	m["dessweep.events_per_s"] = float64(events) / secs
	if fp := res.Table().Fingerprint(); events != dessweepEvents || fp != dessweepFingerprint {
		return []string{fmt.Sprintf("des sweep: got %d events, fingerprint %s; want %d, %s",
			events, fp, dessweepEvents, dessweepFingerprint)}, nil
	}
	return nil, nil
}

// layerMetrics computes every per-layer metric for the traced run of w,
// whose timed call produced out inside span mainID.
func layerMetrics(tr *tracer, w workload, tiny bool, seed int64, out outcome, mainID int) (map[string]float64, []string, error) {
	m := make(map[string]float64, len(perLayer))
	rt := tr.spans[mainID].Counts
	m["runtime.gc.cycles"] = rt["gc_cycles"]
	m["runtime.gc.cpu_s"] = rt["gc_cpu_s"]
	m["runtime.alloc.bytes"] = rt["alloc_bytes"]
	m["runtime.alloc.objects"] = rt["alloc_objects"]

	prog := out.prog
	if out.spec == nil && prog == nil {
		return nil, nil, fmt.Errorf("the timed call failed: %v", out.problems)
	}
	if out.spec != nil {
		p, err := getProg(tr, out.spec.N, out.spec.M)
		if err != nil {
			return nil, nil, err
		}
		prog = p
	}
	sample := 20000
	if tiny {
		sample = refGCLSample
	}
	g, err := probeGCL(tr, prog, seed, sample)
	if err != nil {
		return nil, nil, err
	}
	g.put(m)

	var bad []string
	add := func(b []string, err error) error {
		bad = append(bad, b...)
		return err
	}
	switch c := w.cell(tiny).(type) {
	case verifyCell:
		err = add(checkLayers(tr, c, &out, &g, seed, m))
	case livelockCell:
		err = add(graphLayers(tr, c, &out, seed, m))
	case serviceCell:
		err = add(scenarioLayers(tr, c, &out, &g, seed, m))
	}
	if err != nil {
		return nil, nil, err
	}

	tr.ref = true
	for _, ref := range workloads {
		if err != nil {
			break
		}
		switch c := ref.tiny.(type) {
		case verifyCell:
			if _, ok := m["mc.check_s"]; !ok {
				err = add(checkLayers(tr, c, nil, nil, seed, m))
			}
		case livelockCell:
			if _, ok := m["mc.graph.build_s"]; !ok {
				err = add(graphLayers(tr, c, nil, seed, m))
			}
		case serviceCell:
			if _, ok := m["scenario.events"]; !ok {
				err = add(scenarioLayers(tr, c, nil, nil, seed, m))
			}
		}
	}
	tr.ref = false
	if err == nil {
		err = add(dessweepLayers(tr, m))
	}
	if err != nil {
		return nil, nil, err
	}
	return m, bad, nil
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
