package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"time"
)

// tracer records, in memory, one span per call into a layer. A nil
// *tracer records nothing, so the timed runs execute the same code with
// tracing off.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int
	rt    [][len(rtNames)]float64 // runtime counters at each open span's start
	// ref marks spans recorded while a reference probe runs: the probe of a
	// layer the traced workload itself does not call.
	ref bool
}

type span struct {
	ID     int                `json:"id"`
	Parent int                `json:"parent"` // -1 for a root span
	Layer  string             `json:"layer"`
	Name   string             `json:"name"`
	Ref    bool               `json:"reference,omitempty"`
	Start  int64              `json:"start_ns"`
	End    int64              `json:"end_ns"`
	Self   int64              `json:"self_ns"`
	Counts map[string]float64 `json:"counts,omitempty"`
}

// rtNames are the runtime counters every span records as deltas.
var rtNames = [...]string{
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
}

var rtKeys = [len(rtNames)]string{"gc_cycles", "gc_cpu_s", "alloc_bytes", "alloc_objects"}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(layer, name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Layer: layer, Name: name, Ref: t.ref,
		Start: time.Since(t.t0).Nanoseconds()})
	t.open = append(t.open, id)
	t.rt = append(t.rt, readRuntime())
	return id
}

// end closes span id, which must be the innermost open span, attaching
// counts and the runtime-counter deltas over the span.
func (t *tracer) end(id int, counts map[string]float64) {
	if t == nil {
		return
	}
	n := len(t.open) - 1
	if n < 0 || t.open[n] != id {
		panic(fmt.Sprintf("perfbench: span %d closed out of order", id))
	}
	now := readRuntime()
	sp := &t.spans[id]
	sp.End = time.Since(t.t0).Nanoseconds()
	sp.Counts = make(map[string]float64, len(counts)+len(rtKeys))
	for k, v := range counts {
		sp.Counts[k] = v
	}
	for i, k := range rtKeys {
		sp.Counts[k] = now[i] - t.rt[n][i]
	}
	t.open, t.rt = t.open[:n], t.rt[:n]
}

// write fills in each span's self time (its duration minus the part its
// child spans cover) and writes the spans with the environment header.
func (t *tracer) write(path string, env envInfo) error {
	for i := range t.spans {
		t.spans[i].Self = t.spans[i].End - t.spans[i].Start
	}
	for _, sp := range t.spans {
		if sp.Parent >= 0 {
			t.spans[sp.Parent].Self -= sp.End - sp.Start
		}
	}
	data, err := json.MarshalIndent(struct {
		Env   envInfo `json:"env"`
		Spans []span  `json:"spans"`
	}{env, t.spans}, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func readRuntime() [len(rtNames)]float64 {
	var samples [len(rtNames)]metrics.Sample
	for i, name := range rtNames {
		samples[i].Name = name
	}
	metrics.Read(samples[:])
	var out [len(rtNames)]float64
	for i, s := range samples {
		out[i] = sampleValue(s)
	}
	return out
}

func sampleValue(s metrics.Sample) float64 {
	switch s.Value.Kind() {
	case metrics.KindUint64:
		return float64(s.Value.Uint64())
	case metrics.KindFloat64:
		return s.Value.Float64()
	}
	return 0
}

func readMetric(name string) float64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	return sampleValue(s[0])
}

// liveHeap forces a collection and returns the heap bytes it found live.
func liveHeap() float64 {
	runtime.GC()
	return readMetric("/gc/heap/live:bytes")
}

// heapSampler polls the heap-object bytes from a goroutine of its own
// while a call runs, keeping the peak.
type heapSampler struct {
	done chan struct{}
	quit chan struct{}
	base float64
	peak float64
}

const heapObjects = "/memory/classes/heap/objects:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{done: make(chan struct{}), quit: make(chan struct{}), base: liveHeap()}
	h.peak = h.base
	go func() {
		defer close(h.done)
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			if v := readMetric(heapObjects); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.quit:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stop ends the sampling and returns the peak above the level at start.
func (h *heapSampler) stop() float64 {
	close(h.quit)
	<-h.done
	if v := readMetric(heapObjects); v > h.peak {
		h.peak = v
	}
	return h.peak - h.base
}
