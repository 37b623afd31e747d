package specs

import (
	"strings"
	"testing"

	"bakerypp/internal/gcl"
)

func allSpecs(n, m int) []*gcl.Prog {
	return []*gcl.Prog{
		Bakery(Config{N: n, M: m}),
		Bakery(Config{N: n, M: m, Fine: true}),
		BakeryPP(Config{N: n, M: m}),
		BakeryPP(Config{N: n, M: m, Fine: true}),
		BakeryPP(Config{N: n, M: m, SplitReset: true}),
		BakeryPP(Config{N: n, M: m, EqCheck: true}),
		BakeryPP(Config{N: n, M: m, NoGate: true}),
		BlackWhite(n),
		Peterson(n),
		Szymanski(n),
		ModBakery(n, m),
	}
}

// Every specification follows the package conventions the checker and the
// simulator rely on.
func TestConventions(t *testing.T) {
	for _, p := range allSpecs(3, 4) {
		if p.Labels()[0] != "ncs" {
			t.Errorf("%s: first label is %q, want ncs", p.Name, p.Labels()[0])
		}
		if !p.HasLabel("cs") {
			t.Errorf("%s: no cs label", p.Name)
		}
		if p.M <= 0 {
			t.Errorf("%s: M not set", p.Name)
		}
		tags := p.BranchTags()
		for _, want := range []string{"try", "cs-enter", "cs-exit"} {
			if tags[want] == 0 {
				t.Errorf("%s: no branch tagged %q", p.Name, want)
			}
		}
	}
}

func TestBakeryFamilyHasDoorwayTag(t *testing.T) {
	for _, p := range allSpecs(2, 3) {
		if p.Name == "szymanski" {
			continue // measured relative to its waiting room, untagged
		}
		if p.BranchTags()["doorway-done"] == 0 {
			t.Errorf("%s: no doorway-done tag", p.Name)
		}
	}
}

func TestBakeryPPVariantNaming(t *testing.T) {
	cases := map[string]Config{
		"bakerypp":            {N: 2, M: 3},
		"bakerypp-fine":       {N: 2, M: 3, Fine: true},
		"bakerypp-splitreset": {N: 2, M: 3, SplitReset: true},
		"bakerypp-eqcheck":    {N: 2, M: 3, EqCheck: true},
		"bakerypp-nogate":     {N: 2, M: 3, NoGate: true},
	}
	for want, cfg := range cases {
		if got := BakeryPP(cfg).Name; got != want {
			t.Errorf("BakeryPP(%+v).Name = %q, want %q", cfg, got, want)
		}
	}
}

func TestResetTagOnlyInBakeryPP(t *testing.T) {
	if BakeryPP(Config{N: 2, M: 3}).BranchTags()["reset"] == 0 {
		t.Error("bakerypp missing reset tag")
	}
	if Bakery(Config{N: 2, M: 3}).BranchTags()["reset"] != 0 {
		t.Error("classic bakery must have no reset branch")
	}
}

func TestGetRegistry(t *testing.T) {
	names := Names()
	if len(names) != 6 {
		t.Fatalf("Names() = %v, want 6 entries", names)
	}
	for _, name := range names {
		p, err := Get(name, Config{})
		if err != nil {
			t.Fatalf("Get(%q): %v", name, err)
		}
		if p.N != 2 {
			t.Errorf("Get(%q) default N = %d, want 2", name, p.N)
		}
	}
	if _, err := Get("nonesuch", Config{}); err == nil || !strings.Contains(err.Error(), "unknown") {
		t.Errorf("Get(nonesuch) err = %v", err)
	}
}

// Get refuses negative sizes for every registered spec instead of
// panicking in the constructor or building a nonsense program; zero still
// selects the default.
func TestGetRejectsNegativeSizes(t *testing.T) {
	for _, name := range Names() {
		for _, c := range []struct {
			cfg    Config
			wantOK bool
		}{
			{Config{}, true},
			{Config{N: 3, M: 0}, true},
			{Config{N: 0, M: 3}, true},
			{Config{N: -1}, false},
			{Config{M: -2}, false},
			{Config{N: 3, M: -3}, false},
			{Config{N: -1, M: -1}, false},
		} {
			p, err := Get(name, c.cfg)
			switch {
			case c.wantOK && err != nil:
				t.Errorf("Get(%q, %+v): %v", name, c.cfg, err)
			case !c.wantOK && err == nil:
				t.Errorf("Get(%q, %+v) built a %d-process program, want an error", name, c.cfg, p.N)
			case !c.wantOK && !strings.Contains(err.Error(), name):
				t.Errorf("Get(%q, %+v) error does not name the spec: %v", name, c.cfg, err)
			}
		}
	}
}

func TestGetHonoursConfig(t *testing.T) {
	p, err := Get("bakerypp", Config{N: 4, M: 9})
	if err != nil {
		t.Fatal(err)
	}
	if p.N != 4 || p.M != 9 {
		t.Errorf("N=%d M=%d, want 4/9", p.N, p.M)
	}
}

// The space table (E8): shared register cells per algorithm are exactly
// what the paper's Section 4/7 comparisons cite — Bakery/Bakery++ use 2N
// cells, Black-White 3N+1, Peterson 2N, Szymanski N.
func TestSharedCellCounts(t *testing.T) {
	n := 5
	cases := []struct {
		p    *gcl.Prog
		want int
	}{
		{Bakery(Config{N: n, M: 4}), 2 * n},
		{BakeryPP(Config{N: n, M: 4}), 2 * n},
		{BlackWhite(n), 3*n + 1},
		{Peterson(n), 2 * n},
		{Szymanski(n), n},
	}
	for _, c := range cases {
		if got := c.p.SharedCells(); got != c.want {
			t.Errorf("%s: %d shared cells, want %d", c.p.Name, got, c.want)
		}
	}
}

// Bakery++'s extra conditionals add exactly three labels over classic
// Bakery in the coarse encoding — "almost identical to Bakery" (Section 5),
// now countable.
func TestBakeryPPIsSmallDelta(t *testing.T) {
	b := Bakery(Config{N: 3, M: 4})
	bpp := BakeryPP(Config{N: 3, M: 4})
	delta := len(bpp.Labels()) - len(b.Labels())
	if delta != 3 {
		t.Errorf("label delta = %d, want 3 (the l1 gate, the chk conditional, the rst reset)", delta)
	}
	if bpp.SharedCells() != b.SharedCells() {
		t.Error("Bakery++ must not add shared variables (Section 5)")
	}
}

// Initial states are all-zero except Peterson's local level counter.
func TestInitialStates(t *testing.T) {
	for _, p := range allSpecs(2, 3) {
		s := p.InitState()
		for _, name := range p.SharedNames() {
			for i := 0; i < p.SharedSize(name); i++ {
				if v := p.Shared(s, name, i); v != 0 {
					t.Errorf("%s: %s[%d] = %d initially, want 0", p.Name, name, i, v)
				}
			}
		}
	}
}
