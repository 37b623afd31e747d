package harness

import (
	"fmt"
	"testing"

	"bakerypp/internal/gcl"
	"bakerypp/internal/mc"
	"bakerypp/internal/scenario"
	"bakerypp/internal/specs"
)

// snapshotPin is one row of the last recorded benchmark-grid snapshot
// (go1.24, every run at GOMAXPROCS 1): the counts and the verdict a run
// must keep reproducing. Safety rows count states and transitions;
// starvation rows graph states and edges; FCFS rows monitor-product
// states (transitions are not counted there); event rows executed events,
// with the run's fingerprint as the verdict.
type snapshotPin struct {
	name        string
	states      int
	transitions int
	verdict     string
	run         func(t *testing.T) (states, transitions int, verdict string)
}

// safetyRow runs a safety check of algo at n/m under a reduction mode and
// a visited-set tier, named as the snapshot named it.
func safetyRow(algo string, n, m int, sym, por bool, store string, states, transitions int, verdictWant string) snapshotPin {
	mode := "none"
	switch {
	case sym && por:
		mode = "symmetry+por"
	case sym:
		mode = "symmetry"
	case por:
		mode = "por"
	}
	name := fmt.Sprintf("%s-n%d-m%d/%s", algo, n, m, mode)
	if store != "exact" {
		name += "/" + store
	}
	return snapshotPin{name, states, transitions, verdictWant, func(t *testing.T) (int, int, string) {
		so, err := mc.ParseStoreSpec(store)
		if err != nil {
			t.Fatal(err)
		}
		res := mc.Check(pinSpec(t, algo, n, m), mc.Options{
			Invariants: safetyInvariants(), Symmetry: sym, POR: por, Store: so,
		})
		return res.States, res.Transitions, verdict(res)
	}}
}

// starveRow runs the Section 6.3 starvation search on Bakery++ N=3 M=2:
// pid 2 pinned at l1 while pids 0 and 1 keep moving, on the full graph or
// on the symmetry quotient.
func starveRow(mode string, sym bool, states, transitions int) snapshotPin {
	return snapshotPin{"bakerypp-n3-m2/starve/" + mode, states, transitions, "cycle", func(t *testing.T) (int, int, string) {
		p := pinSpec(t, "bakerypp", 3, 2)
		g, err := mc.BuildGraph(p, mc.Options{Symmetry: sym})
		if err != nil {
			t.Fatal(err)
		}
		l1 := p.LabelIndex("l1")
		v := "no cycle"
		if g.FindStarvation(func(pr *gcl.Prog, s gcl.State) bool { return pr.PC(s, 2) == l1 }, []int{0, 1}) != nil {
			v = "cycle"
		}
		return g.NumStates(), g.Summary.Transitions, v
	}}
}

// fcfsRow runs the FCFS monitor product for the pair (2, 0) on Bakery++
// N=3 M=2, on concrete or pinned-orbit keys.
func fcfsRow(mode string, sym bool, states int) snapshotPin {
	return snapshotPin{"bakerypp-n3-m2/fcfs/" + mode, states, 0, "holds", func(t *testing.T) (int, int, string) {
		res, err := mc.CheckFCFS(pinSpec(t, "bakerypp", 3, 2), 2, 0, mc.Options{Symmetry: sym})
		if err != nil {
			t.Fatal(err)
		}
		v := "holds"
		if !res.Holds || !res.Complete {
			v = fmt.Sprintf("holds=%v complete=%v", res.Holds, res.Complete)
		}
		return res.States, 0, v
	}}
}

// scenarioRow runs a scenario preset single-threaded at seed 1.
func scenarioRow(preset string, events int, fingerprint string) snapshotPin {
	return snapshotPin{"scenario/" + preset, events, 0, fingerprint, func(t *testing.T) (int, int, string) {
		spec, err := ResolveScenario(preset)
		if err != nil {
			t.Fatal(err)
		}
		res, err := scenario.Run(spec, scenario.Options{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		return int(res.Events), 0, res.Fingerprint()
	}}
}

func pinSpec(t *testing.T, algo string, n, m int) *gcl.Prog {
	t.Helper()
	p, err := specs.Get(algo, specs.Config{N: n, M: m})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

const overflow = "VIOLATION:no-overflow"

// snapshotPins lists every row of the snapshot that runs in under about a
// second. The unreduced Bakery++ N=4 M=2 search (1,572,204 states,
// 5,504,088 transitions) is left to the verify-full benchmark workload and
// the CI memory smoke, which pin it too.
var snapshotPins = []snapshotPin{
	safetyRow("bakerypp", 2, 2, false, false, "exact", 820, 1530, "verified"),
	safetyRow("bakerypp", 2, 2, true, false, "exact", 270, 488, "verified"),
	safetyRow("bakerypp", 2, 2, false, true, "exact", 445, 803, "verified"),
	safetyRow("bakerypp", 2, 2, true, true, "exact", 138, 237, "verified"),
	safetyRow("bakerypp", 3, 2, false, false, "exact", 36342, 97521, "verified"),
	safetyRow("bakerypp", 3, 2, true, false, "exact", 2552, 6613, "verified"),
	safetyRow("bakerypp", 3, 2, false, true, "exact", 13909, 35308, "verified"),
	safetyRow("bakerypp", 3, 2, true, true, "exact", 948, 2303, "verified"),
	safetyRow("bakerypp", 4, 2, true, false, "exact", 18489, 62321, "verified"),
	safetyRow("bakerypp", 4, 2, false, true, "exact", 429635, 1403737, "verified"),
	safetyRow("bakerypp", 4, 2, true, true, "exact", 5270, 16517, "verified"),
	safetyRow("bakerypp", 5, 2, true, false, "exact", 112467, 466842, "verified"),
	safetyRow("bakerypp", 5, 2, true, true, "exact", 25413, 97715, "verified"),
	safetyRow("bakery", 3, 3, false, false, "exact", 6126, 15630, overflow),
	safetyRow("bakery", 3, 3, true, false, "exact", 666, 1703, overflow),
	safetyRow("bakery", 3, 3, false, true, "exact", 1683, 3806, overflow),
	safetyRow("bakery", 3, 3, true, true, "exact", 206, 477, overflow),
	safetyRow("bakery", 4, 4, false, false, "exact", 197655, 666985, overflow),
	safetyRow("bakery", 4, 4, true, false, "exact", 4876, 16189, overflow),
	safetyRow("bakery", 4, 4, false, true, "exact", 32473, 95536, overflow),
	safetyRow("bakery", 4, 4, true, true, "exact", 1047, 3126, overflow),
	safetyRow("bakery", 6, 4, true, false, "exact", 740, 3141, overflow),
	safetyRow("bakery", 6, 4, true, true, "exact", 179, 664, overflow),
	safetyRow("szymanski", 3, 4, false, false, "exact", 572, 1302, "verified"),
	safetyRow("szymanski", 3, 4, true, false, "exact", 130, 290, "verified"),
	safetyRow("szymanski", 3, 4, false, true, "exact", 386, 817, "verified"),
	safetyRow("szymanski", 3, 4, true, true, "exact", 93, 191, "verified"),
	safetyRow("szymanski", 4, 4, false, false, "exact", 4426, 12983, "verified"),
	safetyRow("szymanski", 4, 4, true, false, "exact", 360, 1024, "verified"),
	safetyRow("szymanski", 4, 4, false, true, "exact", 2528, 6894, "verified"),
	safetyRow("szymanski", 4, 4, true, true, "exact", 231, 605, "verified"),
	// Store tiers under symmetry+POR. The bitstate tier explores more
	// states because it drops POR: it stores no values, so the ample
	// proviso's stored-depth lookups are impossible.
	safetyRow("bakerypp", 4, 2, true, true, "compact", 5270, 16517, "verified"),
	safetyRow("bakerypp", 4, 2, true, true, "compact64", 5270, 16517, "verified"),
	safetyRow("bakerypp", 4, 2, true, true, "bitstate", 18489, 62321, "verified"),
	safetyRow("bakerypp", 4, 2, true, true, "exact,spill", 5270, 16517, "verified"),
	safetyRow("bakerypp", 4, 2, true, true, "compact,spill", 5270, 16517, "verified"),
	starveRow("none", false, 36342, 97521),
	starveRow("symmetry", true, 2552, 6613),
	fcfsRow("none", false, 44849),
	fcfsRow("symmetry", true, 18318),
	{"des-sweep-default", 324010, 0, "01475accf5c2799b", func(t *testing.T) (int, int, string) {
		cfg := DefaultDESSweep()
		cfg.Workers = 0
		res, err := RunDESSweep(cfg)
		if err != nil {
			t.Fatal(err)
		}
		events := 0
		for i := range res.Cells {
			events += int(res.Cells[i].Events)
		}
		return events, 0, res.Table().Fingerprint()
	}},
	scenarioRow("smoke", 720000, "b7fcb2b12fec14e0"),
	scenarioRow("overload", 2266953, "00d6ba43925e8e7e"),
}

// TestSnapshotPins reruns every pinned row and compares its counts and
// verdict with the literal values recorded in the snapshot: an engine,
// store, reduction, kernel or scenario change that moves any of them
// fails here.
func TestSnapshotPins(t *testing.T) {
	for _, c := range snapshotPins {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			states, transitions, v := c.run(t)
			if states != c.states || transitions != c.transitions || v != c.verdict {
				t.Errorf("got %d states, %d transitions, %s; pinned %d, %d, %s",
					states, transitions, v, c.states, c.transitions, c.verdict)
			}
		})
	}
}
