package mc

import (
	"strings"
	"testing"

	"bakerypp/internal/gcl"
	"bakerypp/internal/specs"
)

// mustFCFS is CheckFCFS for tests exercising valid store configurations
// (the only error source); the refusal path has its own tests in
// storegate_test.go.
func mustFCFS(p *gcl.Prog, first, second int, opts Options) *FCFSResult {
	res, err := CheckFCFS(p, first, second, opts)
	if err != nil {
		panic(err)
	}
	return res
}

// E6, model half: FCFS holds for the bakery family as a checked property of
// ALL executions, not just sampled ones.
func TestFCFSBakeryFamily(t *testing.T) {
	progs := []struct {
		name string
		n    int
		mk   func() *FCFSResult
	}{
		{"bakerypp-2", 2, func() *FCFSResult {
			return mustFCFS(specs.BakeryPP(specs.Config{N: 2, M: 2}), 0, 1, Options{})
		}},
		{"bakerypp-2-rev", 2, func() *FCFSResult {
			return mustFCFS(specs.BakeryPP(specs.Config{N: 2, M: 2}), 1, 0, Options{})
		}},
		{"bakerypp-3", 3, func() *FCFSResult {
			return mustFCFS(specs.BakeryPP(specs.Config{N: 3, M: 2}), 2, 0, Options{})
		}},
		{"blackwhite-2", 2, func() *FCFSResult {
			return mustFCFS(specs.BlackWhite(2), 0, 1, Options{})
		}},
		{"blackwhite-2-rev", 2, func() *FCFSResult {
			return mustFCFS(specs.BlackWhite(2), 1, 0, Options{})
		}},
	}
	for _, tc := range progs {
		res := tc.mk()
		if !res.Holds {
			t.Fatalf("%s: FCFS violated:\n%s", tc.name, res.Witness.String())
		}
		if !res.Complete {
			t.Errorf("%s: exploration incomplete", tc.name)
		}
		t.Log(res.String())
	}
}

// Classic Bakery's state space is infinite; FCFS is checked up to a state
// bound (bounded evidence, like the mutex check).
func TestFCFSBakeryBounded(t *testing.T) {
	res := mustFCFS(specs.Bakery(specs.Config{N: 2, M: 1 << 14}), 0, 1, Options{MaxStates: 60000})
	if !res.Holds {
		t.Fatalf("bakery FCFS violated:\n%s", res.Witness.String())
	}
	if res.Complete {
		t.Error("bakery product space should not complete within 60k states")
	}
}

// The Peterson filter lock is not FCFS (paper Section 4): a process that
// published its intent can be overtaken by a later arrival. The checker
// finds a shortest witnessing interleaving.
func TestFCFSPetersonViolated(t *testing.T) {
	res := mustFCFS(specs.Peterson(3), 0, 1, Options{})
	if res.Holds {
		t.Fatal("peterson filter reported FCFS; it is not")
	}
	if res.Witness == nil || res.Witness.Len() == 0 {
		t.Fatal("no witness")
	}
	t.Logf("peterson FCFS violation witness: %d steps", res.Witness.Len())
}

// Szymanski serves waiting-room batches in process-id order, so it is FCFS
// only up to intra-batch id reordering: with the lower-id process arriving
// second, the checker finds the reorder; and the favourable direction holds.
func TestFCFSSzymanskiBatchOrder(t *testing.T) {
	rev := mustFCFS(specs.Szymanski(2), 1, 0, Options{})
	if rev.Holds {
		t.Error("szymanski (first=1, second=0): expected id-order overtake")
	} else {
		t.Logf("id-order overtake witness: %d steps", rev.Witness.Len())
	}
	fwd := mustFCFS(specs.Szymanski(2), 0, 1, Options{})
	if !fwd.Holds {
		t.Errorf("szymanski (first=0, second=1): unexpected violation:\n%s", fwd.Witness.String())
	}
}

// A bad pair or a program without the monitor's tags is an error, not a
// panic.
func TestFCFSValidation(t *testing.T) {
	p := specs.BakeryPP(specs.Config{N: 2, M: 2})
	untagged := gcl.New("untagged", 2)
	untagged.SharedVar("x", 0)
	untagged.Label("ncs", gcl.Goto("cs"))
	untagged.Label("cs", gcl.Goto("ncs"))
	untagged.MustBuild()
	for _, tc := range []struct {
		name          string
		p             *gcl.Prog
		first, second int
		want          string
	}{
		{"same-pid", p, 0, 0, "bad FCFS pair"},
		{"negative-pid", p, -1, 1, "bad FCFS pair"},
		{"pid-past-N", p, 0, 2, "bad FCFS pair"},
		{"untagged", untagged, 0, 1, "lacks the"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := CheckFCFS(tc.p, tc.first, tc.second, Options{})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("CheckFCFS(%d, %d) = %v, %v; want an error containing %q",
					tc.first, tc.second, res, err, tc.want)
			}
		})
	}
}

func TestFCFSResultString(t *testing.T) {
	res := mustFCFS(specs.BakeryPP(specs.Config{N: 2, M: 2}), 0, 1, Options{})
	if !strings.Contains(res.String(), "FCFS holds") {
		t.Errorf("String = %q", res.String())
	}
	bad := mustFCFS(specs.Peterson(3), 0, 1, Options{})
	if !strings.Contains(bad.String(), "VIOLATED") {
		t.Errorf("String = %q", bad.String())
	}
}
