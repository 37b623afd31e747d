// Command perfbench is the repository's benchmark: it times the model
// checker, its graph analyses and the lock-service simulator on four
// workloads, checks every verdict against pinned values, and reports
// end-to-end metrics (timed mode) or per-layer metrics (traced mode).
//
//	perfbench -workload verify-full -seed 1 -seconds 25 -trace 0
//	perfbench -workload lockservice -seed 7 -seconds 25 -trace 1
//
// Each measurement runs in a fresh child process (perfbench re-executes
// itself), so peak RSS, CPU time and GC state belong to that one run. The
// last line of standard output is the JSON result; the lines before it
// carry the environment header and each metric's spread. See README.md.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"syscall"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd are the timed mode's metrics, each a median over child runs.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"throughput_per_s", "1/s"},
	{"peak_rss_mb", "MiB"},
	{"cpu_s", "s"},
}

// perLayer are the traced mode's metrics; README.md maps each to the
// end-to-end metric it should move.
var perLayer = []metricDef{
	{"gcl.succ.ns_per_state", "ns/state"},
	{"gcl.succ.per_state", "succ/state"},
	{"gcl.canon.ns_per_succ", "ns/succ"},
	{"gcl.fp.ns_per_succ", "ns/succ"},
	{"gcl.enabled.ns_per_call", "ns/call"},
	{"mc.check_s", "s"},
	{"mc.states", "count"},
	{"mc.transitions", "count"},
	{"mc.depth", "count"},
	{"mc.dup_frac", "ratio"},
	{"mc.store_engine.ns_per_transition", "ns/transition"},
	{"mc.peak_heap.bytes_per_state", "B/state"},
	{"mc.engine.w0_s", "s"},
	{"mc.engine.w1_s", "s"},
	{"mc.engine.w2_s", "s"},
	{"mc.engine.speedup", "ratio"},
	{"mc.graph.build_s", "s"},
	{"mc.graph.states", "count"},
	{"mc.graph.bytes_per_state", "B/state"},
	{"mc.quotient.search_s", "s"},
	{"mc.quotient.component_states", "count"},
	{"mc.fcfs_s", "s"},
	{"mc.fcfs.product_states", "count"},
	{"runtime.gc.cycles", "count"},
	{"runtime.gc.cpu_s", "s"},
	{"runtime.alloc.bytes", "B"},
	{"runtime.alloc.objects", "count"},
	{"des.kernel.ns_per_event", "ns/event"},
	{"scenario.events", "count"},
	{"scenario.grants", "count"},
	{"scenario.rejected_frac", "ratio"},
	{"scenario.events_per_grant", "ratio"},
	{"scenario.w0_s", "s"},
	{"scenario.w2_s", "s"},
	{"scenario.pool.speedup", "ratio"},
	{"scenario.residual.ns_per_event", "ns/event"},
	{"dessweep.s", "s"},
	{"dessweep.events_per_s", "1/s"},
	{"trace.overhead_frac", "ratio"},
}

const (
	// setupReps is how many times a child sets its workload up; setup_s is
	// the median, since one sub-millisecond set-up is mostly noise.
	setupReps = 25
	// minChildren is the fewest child runs a timed run makes, however short
	// its time budget.
	minChildren = 3
	// childTimeout bounds one child run; the slowest full workload takes
	// well under a tenth of it.
	childTimeout = 150 * time.Second
	// pinnedProcs is the GOMAXPROCS every child runs at (fewer on a
	// machine with fewer CPUs, which the header flags).
	pinnedProcs = 2
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 10, "how long the run measures, in seconds")
	trace := fs.Int("trace", 0, "0 for the timed run (end-to-end metrics), 1 for the traced run (per-layer metrics)")
	tiny := fs.Bool("tiny", false, "run each workload's tiny configuration (the quick test's)")
	traceDir := fs.String("trace-dir", ".bench_build/traces", "directory the traced run writes its span files to")
	child := fs.String("child", "", "internal: make one run of the workload in this process, \"timed\" or \"traced\"")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (have %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "perfbench: -trace must be 0 or 1, got %d\n", *trace)
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: -seconds must be positive, got %v\n", *seconds)
		return 2
	}
	if *child != "" {
		if err := runChild(w, *tiny, *seed, *child == "traced", *traceDir, stdout); err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
			return 1
		}
		return 0
	}
	b := &bench{w: w, seed: *seed, budget: time.Duration(*seconds * float64(time.Second)), tiny: *tiny,
		traceDir: *traceDir, stdout: stdout, stderr: stderr}
	var err error
	if *trace == 1 {
		err = b.traced()
	} else {
		err = b.timed()
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	return 0
}

// childReport is what a child run prints as its one line of output.
type childReport struct {
	GOMAXPROCS  int                `json:"gomaxprocs"`
	SetupS      float64            `json:"setup_s"`
	WallS       float64            `json:"wall_s"`
	Items       float64            `json:"items"`
	Fingerprint string             `json:"fingerprint,omitempty"`
	Problems    []string           `json:"problems,omitempty"`
	Layers      map[string]float64 `json:"layers,omitempty"`
	TraceFile   string             `json:"trace_file,omitempty"`
}

// runChild sets the workload up setupReps times, makes its timed call
// once, and — when traced — measures every per-layer metric and writes
// the span file.
func runChild(w workload, tiny bool, seed int64, traced bool, traceDir string, stdout io.Writer) error {
	runtime.GOMAXPROCS(min(pinnedProcs, runtime.NumCPU()))
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	c := w.cell(tiny)
	rep := childReport{GOMAXPROCS: runtime.GOMAXPROCS(0)}
	setups := make([]float64, setupReps)
	var call mainCall
	for i := range setups {
		var t *tracer
		if i == setupReps-1 {
			t = tr
		}
		start := time.Now()
		var err error
		call, err = c.setup(t)
		setups[i] = time.Since(start).Seconds()
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
	}
	rep.SetupS = median(setups)

	id := tr.begin("bench", "timed call "+w.name)
	start := time.Now()
	out := call(tr, seed)
	rep.WallS = time.Since(start).Seconds()
	tr.end(id, nil)
	out.wall = rep.WallS
	rep.Items, rep.Problems = out.items, out.problems
	if out.service != nil {
		rep.Fingerprint = out.service.Fingerprint()
	}
	if traced {
		layers, bad, err := layerMetrics(tr, w, tiny, seed, out, id)
		if err != nil {
			return err
		}
		rep.Layers = layers
		rep.Problems = append(rep.Problems, bad...)
		rep.TraceFile = filepath.Join(traceDir, fmt.Sprintf("%s-seed%d-pid%d.json", w.name, seed, os.Getpid()))
		env := environment(w.name, seed, "traced", tiny, rep.GOMAXPROCS)
		if err := tr.write(rep.TraceFile, env); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	return json.NewEncoder(stdout).Encode(rep)
}

// bench is one invocation of the benchmark on one workload.
type bench struct {
	w        workload
	seed     int64
	budget   time.Duration
	tiny     bool
	traceDir string
	stdout   io.Writer
	stderr   io.Writer

	attempted, failed int
	fingerprint       string
	gomaxprocs        int
}

// sample is one finished child run with its resource usage.
type sample struct {
	rep    childReport
	rssMiB float64
	cpuS   float64
}

// spawn runs one child and checks its output, counting it as failed on a
// crash, a pinned-value mismatch, or a report fingerprint that differs from
// the first child's at the same seed. ok is false when the child produced
// no report.
func (b *bench) spawn(mode string) (s sample, ok bool) {
	b.attempted++
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(b.stderr, "perfbench: locating the perfbench binary: %v\n", err)
		b.failed++
		return s, false
	}
	args := []string{"-child", mode, "-workload", b.w.name, "-seed", fmt.Sprint(b.seed), "-trace-dir", b.traceDir}
	if b.tiny {
		args = append(args, "-tiny")
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, args...)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, b.stderr
	if err := cmd.Run(); err != nil {
		fmt.Fprintf(b.stderr, "perfbench: %s child run failed: %v\n", mode, err)
		b.failed++
		return s, false
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &s.rep); err != nil {
		fmt.Fprintf(b.stderr, "perfbench: %s child printed no report: %v\n", mode, err)
		b.failed++
		return s, false
	}
	if ru, isRU := cmd.ProcessState.SysUsage().(*syscall.Rusage); isRU {
		s.rssMiB = float64(ru.Maxrss) / 1024 // Linux reports KiB
		s.cpuS = time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
	}
	b.gomaxprocs = s.rep.GOMAXPROCS
	bad := s.rep.Problems
	if fp := s.rep.Fingerprint; fp != "" {
		if b.fingerprint == "" {
			b.fingerprint = fp
		} else if fp != b.fingerprint {
			bad = append(bad, fmt.Sprintf("report fingerprint %s differs from the first run's %s at the same seed", fp, b.fingerprint))
		}
	}
	if len(bad) > 0 {
		b.failed++
		for _, p := range bad {
			fmt.Fprintf(b.stderr, "perfbench: %s: WRONG OUTPUT: %s\n", b.w.name, p)
		}
	}
	return s, true
}

// timed runs fresh children until the time budget is spent and reports
// the medians of the end-to-end metrics.
func (b *bench) timed() error {
	vals := map[string][]float64{}
	start := time.Now()
	for {
		t0 := time.Now()
		s, ok := b.spawn("timed")
		if ok {
			vals["setup_s"] = append(vals["setup_s"], s.rep.SetupS)
			vals["wall_s"] = append(vals["wall_s"], s.rep.WallS)
			vals["throughput_per_s"] = append(vals["throughput_per_s"], s.rep.Items/s.rep.WallS)
			vals["peak_rss_mb"] = append(vals["peak_rss_mb"], s.rssMiB)
			vals["cpu_s"] = append(vals["cpu_s"], s.cpuS)
		}
		// Stop once another child would more likely overrun the budget
		// than fit in it.
		if b.attempted >= minChildren && time.Since(start)+time.Since(t0)/2 >= b.budget {
			break
		}
	}
	return b.report("timed", endToEnd, vals)
}

// traced alternates pairs of children — one untraced, one traced — until
// the budget is spent (at least one pair). The per-layer metrics are the
// traced children's medians; trace.overhead_frac compares the two sides'
// timed-call wall times.
func (b *bench) traced() error {
	vals := map[string][]float64{}
	var plain, traced []float64
	start := time.Now()
	for {
		t0 := time.Now()
		if s, ok := b.spawn("timed"); ok {
			plain = append(plain, s.rep.WallS)
		}
		if s, ok := b.spawn("traced"); ok {
			traced = append(traced, s.rep.WallS)
			for k, v := range s.rep.Layers {
				vals[k] = append(vals[k], v)
			}
			fmt.Fprintf(b.stdout, "# spans: %s\n", s.rep.TraceFile)
		}
		if time.Since(start)+time.Since(t0) >= b.budget {
			break
		}
	}
	if len(plain) > 0 && len(traced) > 0 {
		vals["trace.overhead_frac"] = []float64{median(traced)/median(plain) - 1}
	}
	return b.report("traced", perLayer, vals)
}

// report prints the environment header, each metric's spread, and the
// result line.
func (b *bench) report(mode string, defs []metricDef, vals map[string][]float64) error {
	env := environment(b.w.name, b.seed, mode, b.tiny, b.gomaxprocs)
	head, err := json.Marshal(env)
	if err != nil {
		return err
	}
	fmt.Fprintf(b.stdout, "# env %s\n", head)
	if !env.W2Valid {
		fmt.Fprintf(b.stdout, "# WARNING: GOMAXPROCS=%d < 2, so every 2-worker number (verify-sym, lockservice, the w2 metrics) is not valid\n", env.GOMAXPROCS)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		xs := vals[d.name]
		if len(xs) == 0 {
			return fmt.Errorf("no measurement of %s (every child run failed?)", d.name)
		}
		q1, med, q3 := quartiles(xs)
		fmt.Fprintf(b.stdout, "# %-34s median %-14.6g q1 %-14.6g q3 %-14.6g n=%d %s\n", d.name, med, q1, q3, len(xs), d.unit)
		metrics[d.name] = value{med, d.unit}
	}
	fmt.Fprintf(b.stdout, "# fail_frac %d/%d\n", b.failed, b.attempted)
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{b.failed == 0, b.attempted, b.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(b.stdout, "%s\n", line)
	return err
}

// quartiles returns the first quartile, median and third quartile by
// Python's statistics.quantiles(xs, n=4) (the exclusive method).
func quartiles(xs []float64) (q1, med, q3 float64) {
	med = median(xs)
	if len(xs) < 2 {
		return med, med, med
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	at := func(p float64) float64 {
		pos := p * float64(len(s)+1)
		j := int(pos)
		if j < 1 {
			return s[0]
		}
		if j >= len(s) {
			return s[len(s)-1]
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return at(0.25), med, at(0.75)
}

// envInfo is the environment header every result and span file carries.
type envInfo struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Mode       string `json:"mode"`
	Tiny       bool   `json:"tiny,omitempty"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	W2Valid    bool   `json:"w2_valid"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func environment(workload string, seed int64, mode string, tiny bool, procs int) envInfo {
	return envInfo{
		Workload: workload, Seed: seed, Mode: mode, Tiny: tiny,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: procs, W2Valid: procs >= 2,
		CPUModel: cpuModel(), GoVersion: runtime.Version(), Commit: commit(),
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the git revision perfbench was built from, when it was built
// inside a git checkout.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+modified"
	}
	return rev
}
