package harness

// The lock-service scenario surface of the harness: named preset
// scenarios (the grids cmd/bakeryserve and `bakerybench -scenario` run)
// and spec resolution for CLI arguments.

import (
	"fmt"
	"sort"
	"strings"

	"bakerypp/internal/scenario"
)

// scenarioPresets are the canonical preset scenarios. Keep every entry
// in Spec canonical form (Parse(text).String() == text): the fuzz suite
// pins the grammar, and TestScenarioPresetsCanonical pins these.
var scenarioPresets = map[string]string{
	// smoke is the CI gate's scenario: three heterogeneous classes
	// (steady Poisson, CV-4 Gamma bursts, bimodal holds) over four
	// shards with admission control, sized to finish in well under a
	// second even under -race.
	"smoke": "name=smoke;algo=bakerypp;shards=4;n=4;m=64;clients=30000;admit=token:900,32;" +
		"class=gold/1/poisson:40/fixed:4/60;" +
		"class=bulk/2/burst:60,4/poisson:9/300;" +
		"class=batch/1/poisson:90/bimodal:4,60,10/1200",
	// fleet1m is the flagship fleet: one million simulated clients over
	// 64 shards — the scale the no-goroutine-herd design exists for —
	// tuned to moderate load (ρ≈0.6) so the SLO-attainment columns show
	// a healthy service rather than a saturated one (overload covers
	// saturation).
	"fleet1m": "name=fleet1m;algo=bakerypp;shards=64;n=4;m=256;clients=1000000;admit=token:120,64;" +
		"class=gold/1/poisson:80/fixed:4/80;" +
		"class=bulk/2/burst:120,6/poisson:8/400;" +
		"class=batch/1/poisson:190/bimodal:4,80,10/1500",
	// overload offers roughly twice the admitted capacity: the token
	// bucket turns the excess away while the served classes keep
	// bounded latency.
	"overload": "name=overload;algo=bakerypp;shards=8;n=4;m=32;clients=200000;admit=token:60,16;" +
		"class=rush/3/burst:12,8/poisson:6/250;" +
		"class=steady/1/poisson:40/fixed:3/120",
}

// ScenarioPresets returns the preset names, sorted.
func ScenarioPresets() []string {
	out := make([]string, 0, len(scenarioPresets))
	for name := range scenarioPresets {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// ResolveScenario turns a CLI argument into a Spec: a preset name, or a
// full spec in the scenario grammar (recognised by its '=').
func ResolveScenario(arg string) (*scenario.Spec, error) {
	if text, ok := scenarioPresets[arg]; ok {
		return scenario.Parse(text)
	}
	if !strings.Contains(arg, "=") {
		return nil, fmt.Errorf("harness: unknown scenario preset %q (have %v); pass a full spec (name=...;algo=...;...) to run a custom one",
			arg, ScenarioPresets())
	}
	return scenario.Parse(arg)
}
