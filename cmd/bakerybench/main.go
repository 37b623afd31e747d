// Command bakerybench runs the repository's experiment suite (E1–E21; see
// docs/experiments.md for the catalogue), or — with -sweep, -des or
// -scenario — a deterministic contention sweep or lock-service scenario.
//
//	bakerybench               # run every experiment
//	bakerybench -run E2,E9    # selected experiments
//	bakerybench -list         # list experiments
//	bakerybench -sweep        # 48-cell scenario grid in virtual time
//	bakerybench -sweep -sweep-workers 4 -sweep-seed 7
//	bakerybench -des                          # discrete-event sweep (12 cells)
//	bakerybench -des -latency jitter:2,5      # with a latency model
//	bakerybench -des -record sweep.deslog     # record the event log
//	bakerybench -scenario smoke               # lock-service scenario preset
//
// The sweeps and scenarios execute deterministically in virtual time, so
// their aggregated tables — including the printed fingerprints — are
// identical on any machine, at any GOMAXPROCS, and for any -sweep-workers
// value. The -des mode runs each cell as a single-threaded discrete-event
// loop (no goroutine herd) with latency-model-priced actions, reporting
// acquire-latency percentiles, wait histograms and reset timing; -scenario
// runs a simulated client fleet against sharded critical sections (see
// docs/scenarios.md and cmd/bakeryserve); a -record'ed log of either kind
// replays byte-identically with cmd/bakeryreplay.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"bakerypp/internal/harness"
	"bakerypp/internal/mc"
	"bakerypp/internal/profiling"
	"bakerypp/internal/scenario"
)

// main delegates to runMain so that deferred cleanup (profile writing)
// happens before the process exits; os.Exit skips defers.
func main() {
	os.Exit(runMain())
}

func runMain() int {
	var (
		run      = flag.String("run", "all", "comma-separated experiment IDs, or 'all'")
		list     = flag.Bool("list", false, "list experiments and exit")
		workers  = flag.Int("workers", 0, "model-checking expansion goroutines (0 or 1 = inline on one goroutine, -1 = GOMAXPROCS; FCFS/refinement checks stay sequential)")
		symmetry = flag.Bool("symmetry", false, "process-symmetry reduction for the safety-check experiments (specs declaring full symmetry explore one state per orbit; verdicts unchanged)")
		por      = flag.Bool("por", false, "ample-set partial-order reduction for the safety-check experiments (composes with -symmetry; verdicts unchanged)")
		store    = flag.String("store", "", "visited-set tier for the store-aware experiments (E17): exact|compact[64|128]|bitstate, with ,spill and ,shadow modifiers; empty = experiment defaults")

		cpuProf = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf = flag.String("memprofile", "", "write an allocation profile to this file on exit")

		sweep        = flag.Bool("sweep", false, "run the deterministic contention sweep instead of the experiment suite")
		sweepWorkers = flag.Int("sweep-workers", 1, "sweep worker pool size (cells in parallel, -1 = GOMAXPROCS; the table is identical for any value)")
		sweepSeed    = flag.Int64("sweep-seed", 1, "base schedule seed for the sweep (two seeds run per cell: seed and seed+1)")
		sweepIters   = flag.Int("sweep-iters", 0, "critical sections per participant per cell run (0 = grid default)")
		sweepCSV     = flag.Bool("sweep-csv", false, "emit the sweep table as CSV")

		desMode = flag.Bool("des", false, "run the discrete-event contention sweep instead of the experiment suite (three seeds per cell: seed, seed+1, seed+2)")
		latency = flag.String("latency", "unit", "latency model for -des and -scenario: unit, fixed:<d>, jitter:<base>,<spread>, classes:<c>=<dist>;...")
		record  = flag.String("record", "", "with -des or -scenario: write the run's event log to this file (replay with bakeryreplay)")

		scenarioArg = flag.String("scenario", "", "run a lock-service scenario instead of the experiment suite: a preset name (bakeryserve -list) or a full spec; honours -sweep-workers, -sweep-seed, -latency and -record")
	)
	flag.Parse()

	prof, err := profiling.Start(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bakerybench:", err)
		return 2
	}
	defer func() {
		if err := prof.Stop(); err != nil {
			fmt.Fprintln(os.Stderr, "bakerybench: writing profile:", err)
		}
	}()

	if *sweepIters < 0 {
		fmt.Fprintf(os.Stderr, "bakerybench: -sweep-iters must be >= 0 (0 = grid default), got %d\n", *sweepIters)
		return 2
	}
	var storeOpts *mc.StoreOptions
	if *store != "" {
		so, err := mc.ParseStoreSpec(*store)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bakerybench:", err)
			return 2
		}
		storeOpts = &so
	}

	if *list {
		for _, e := range harness.Experiments() {
			fmt.Printf("%-4s %s\n     claim: %s\n", e.ID, e.Title, e.Claim)
		}
		return 0
	}
	if *scenarioArg != "" {
		spec, err := harness.ResolveScenario(*scenarioArg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bakerybench:", err)
			return 2
		}
		opts := scenario.Options{Seed: *sweepSeed, Workers: *sweepWorkers, Latency: *latency}
		var logFile *os.File
		if *record != "" {
			f, err := os.Create(*record)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bakerybench:", err)
				return 1
			}
			logFile = f
			opts.Record = f
		}
		res, err := scenario.Run(spec, opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bakerybench:", err)
			return 1
		}
		for _, tb := range res.Tables() {
			if *sweepCSV {
				fmt.Print(tb.CSV())
			} else {
				fmt.Println(tb)
			}
		}
		fmt.Printf("fingerprint: %s\n", res.Fingerprint())
		if logFile != nil {
			if err := logFile.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "bakerybench:", err)
				return 1
			}
			fmt.Printf("recorded event log: %s\n", *record)
		}
		return 0
	}
	if *desMode {
		cfg := harness.DefaultDESSweep()
		cfg.Workers = *sweepWorkers
		cfg.Latency = *latency
		cfg.Seeds = []int64{*sweepSeed, *sweepSeed + 1, *sweepSeed + 2}
		if *sweepIters > 0 {
			cfg.Iters = *sweepIters
		}
		var logFile *os.File
		if *record != "" {
			f, err := os.Create(*record)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bakerybench:", err)
				return 1
			}
			logFile = f
			cfg.Record = f
		}
		res, err := harness.RunDESSweep(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bakerybench:", err)
			return 1
		}
		tb := res.Table()
		if *sweepCSV {
			fmt.Print(tb.CSV())
		} else {
			fmt.Println(tb)
		}
		fmt.Printf("cells: %d  fingerprint: %s\n", len(res.Cells), tb.Fingerprint())
		if logFile != nil {
			if err := logFile.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "bakerybench:", err)
				return 1
			}
			fmt.Printf("recorded event log: %s\n", *record)
		}
		return 0
	}
	if *sweep {
		cfg := harness.DefaultSweep()
		cfg.Workers = *sweepWorkers
		cfg.Seeds = []int64{*sweepSeed, *sweepSeed + 1}
		if *sweepIters > 0 {
			cfg.Iters = *sweepIters
		}
		res, err := harness.RunSweep(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bakerybench:", err)
			return 1
		}
		tb := res.Table()
		if *sweepCSV {
			fmt.Print(tb.CSV())
		} else {
			fmt.Println(tb)
		}
		fmt.Printf("cells: %d  fingerprint: %s\n", len(res.Cells), tb.Fingerprint())
		return 0
	}
	ids := strings.Split(*run, ",")
	for i := range ids {
		ids[i] = strings.TrimSpace(ids[i])
	}
	cfg := harness.ExpConfig{MCWorkers: *workers, SweepWorkers: *sweepWorkers, Symmetry: *symmetry, POR: *por, Store: storeOpts}
	if err := harness.RunExperiments(os.Stdout, ids, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "bakerybench:", err)
		return 1
	}
	return 0
}
