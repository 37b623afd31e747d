package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for perfbench when a run
// re-executes itself as a child.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-child" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

type benchFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func readBenchFile(t *testing.T) benchFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBenchmarkFileMatchesCode pins BENCHMARK.json to the workloads and
// metrics perfbench implements.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	b := readBenchFile(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s; perfbench has %s", got, want)
	}
	for _, c := range []struct {
		kind string
		file []struct{ Name, Unit string }
		defs []metricDef
	}{{"end_to_end", b.EndToEnd, endToEnd}, {"per_layer", b.PerLayer, perLayer}} {
		if len(c.file) != len(c.defs) {
			t.Errorf("%s: BENCHMARK.json names %d metrics; perfbench emits %d", c.kind, len(c.file), len(c.defs))
			continue
		}
		for i, m := range c.file {
			if m.Name != c.defs[i].name || m.Unit != c.defs[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s); perfbench has %s (%s)",
					c.kind, i, m.Name, m.Unit, c.defs[i].name, c.defs[i].unit)
			}
		}
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestWorkloadsTiny runs every workload's tiny configuration through the
// timed and the traced run, end to end through child processes, and
// checks that each run passes its correctness gate and emits every
// metric BENCHMARK.json names, with its unit.
func TestWorkloadsTiny(t *testing.T) {
	b := readBenchFile(t)
	traces := t.TempDir()
	for _, w := range workloads {
		for _, mode := range []struct {
			trace string
			want  []struct{ Name, Unit string }
		}{{"0", b.EndToEnd}, {"1", b.PerLayer}} {
			var stdout, stderr bytes.Buffer
			code := run([]string{"-workload", w.name, "-seed", "1", "-seconds", "0.2", "-trace", mode.trace,
				"-tiny", "-trace-dir", traces}, &stdout, &stderr)
			if code != 0 {
				t.Fatalf("%s trace=%s: exit %d\n%s", w.name, mode.trace, code, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res struct {
				Correct   bool `json:"correct"`
				Attempted int  `json:"attempted"`
				Failed    int  `json:"failed"`
				Metrics   map[string]struct {
					Value *float64 `json:"value"`
					Unit  string   `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%s: last line is not the result: %v", w.name, mode.trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%s: correct=%v attempted=%d failed=%d\n%s",
					w.name, mode.trace, res.Correct, res.Attempted, res.Failed, stderr.String())
			}
			if len(res.Metrics) != len(mode.want) {
				t.Errorf("%s trace=%s: %d metrics, want %d", w.name, mode.trace, len(res.Metrics), len(mode.want))
			}
			for _, m := range mode.want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok || got.Value == nil:
					t.Errorf("%s trace=%s: no %s", w.name, mode.trace, m.Name)
				case !metricName.MatchString(m.Name) || got.Unit != m.Unit:
					t.Errorf("%s trace=%s: %s has unit %q, want %q", w.name, mode.trace, m.Name, got.Unit, m.Unit)
				case math.IsNaN(*got.Value) || math.IsInf(*got.Value, 0):
					t.Errorf("%s trace=%s: %s = %v", w.name, mode.trace, m.Name, *got.Value)
				case mode.trace == "0" && *got.Value <= 0:
					t.Errorf("%s: end-to-end %s = %v, want > 0", w.name, m.Name, *got.Value)
				}
			}
		}
	}
}
