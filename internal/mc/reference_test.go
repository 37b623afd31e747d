package mc

// Reference digests: the graphs and check results every engine path must
// reproduce, pinned as 64-bit digests. The values were captured from the
// original single-threaded BFS engine before it was folded into the one
// exploration loop, so that engine's output stays checked after its code
// is gone. Any change to state numbering, parent attribution, edge order,
// stop points, verdicts or rendered traces shows up here, at every worker
// count.

import (
	"fmt"
	"testing"

	"bakerypp/internal/gcl"
	"bakerypp/internal/specs"
)

// digest is 64-bit FNV-1a over int64 words and strings.
type digest uint64

func newDigest() digest { return digest(1469598103934665603) }

func (d *digest) word(v int64) {
	for i := 0; i < 8; i++ {
		*d ^= digest(uint64(v) & 0xff)
		*d *= 1099511628211
		v >>= 8
	}
}

func (d *digest) str(s string) {
	d.word(int64(len(s)))
	for i := 0; i < len(s); i++ {
		*d ^= digest(s[i])
		*d *= 1099511628211
	}
}

func (d *digest) words(s []int32) {
	d.word(int64(len(s)))
	for _, v := range s {
		d.word(int64(v))
	}
}

// graphDigest covers every observable of a graph: the summary counts, each
// state's vector and metadata row (depth, BFS parent edge, witnessing
// permutation), and the full adjacency in order.
func graphDigest(g *Graph) uint64 {
	d := newDigest()
	d.word(int64(g.NumStates()))
	d.word(int64(g.Summary.Transitions))
	d.word(int64(g.Summary.Depth))
	for i := 0; i < g.NumStates(); i++ {
		d.words(g.State(i))
		d.words(g.expl.meta.row(int32(i)))
	}
	for v := range g.Adj {
		d.word(int64(len(g.Adj[v])))
		for _, e := range g.Adj[v] {
			d.word(int64(e.To))
			d.word(int64(e.Pid))
			d.word(int64(e.LabelIdx))
			d.word(int64(e.Perm))
		}
	}
	return uint64(d)
}

// checkDigest covers a check's counts, verdict and rendered
// counterexample.
func checkDigest(r *Result) uint64 {
	d := newDigest()
	d.word(int64(r.States))
	d.word(int64(r.Transitions))
	d.word(int64(r.Depth))
	var verdict int64
	if r.Complete {
		verdict |= 1
	}
	if r.Symmetry {
		verdict |= 2
	}
	if r.POR {
		verdict |= 4
	}
	d.word(verdict)
	if r.Violation != nil {
		d.str(r.Violation.Invariant)
		d.str(r.Violation.Trace.String())
	}
	if r.Deadlock != nil {
		d.str("deadlock")
		d.str(r.Deadlock.String())
	}
	return uint64(d)
}

type referenceCase struct {
	name string
	p    func() *gcl.Prog
	opts Options
	want uint64
}

func referenceGraphs() []referenceCase {
	want := map[string]uint64{
		"bakerypp-N3-M2":       0x552d771ae1866b42,
		"peterson-N3":          0x8ee82da7b7d92b3b,
		"szymanski-N3":         0x349d9fdf05d6703c,
		"bakerypp-N2-M2-crash": 0x443c16f8f4e0f72d,
		"bakerypp-N3-M2-sym":   0x2aa93a3e103ca68a,
	}
	var out []referenceCase
	for _, m := range detModels() {
		out = append(out, referenceCase{m.name, m.p, m.opts, want[m.name]})
	}
	return append(out, referenceCase{"bakerypp-N3-M2-sym",
		func() *gcl.Prog { return specs.BakeryPP(specs.Config{N: 3, M: 2}) },
		Options{Invariants: []Invariant{Mutex(), NoOverflow()}, Symmetry: true}, want["bakerypp-N3-M2-sym"]})
}

func referenceChecks() []referenceCase {
	want := map[string]uint64{
		"bakerypp-N3-M2":         0x2944c1ff1e7c1f80,
		"peterson-N3":            0x8b5d6725de16fffe,
		"szymanski-N3":           0x51adfa77ca54fdc6,
		"bakerypp-N2-M2-crash":   0x672a4ceb3701d026,
		"bakerypp-N3-M2-sym-por": 0xc9e4a0b486627784,
		"bakery-N2-M3-overflow":  0x1bcc3139961b0fb4,
		"bakerypp-N3-M2-bounded": 0xfe030f599e626dc9,
	}
	inv := []Invariant{Mutex(), NoOverflow()}
	var out []referenceCase
	for _, m := range detModels() {
		out = append(out, referenceCase{m.name, m.p, m.opts, want[m.name]})
	}
	return append(out,
		referenceCase{"bakerypp-N3-M2-sym-por",
			func() *gcl.Prog { return specs.BakeryPP(specs.Config{N: 3, M: 2}) },
			Options{Invariants: inv, Symmetry: true, POR: true}, want["bakerypp-N3-M2-sym-por"]},
		referenceCase{"bakery-N2-M3-overflow",
			func() *gcl.Prog { return specs.Bakery(specs.Config{N: 2, M: 3}) },
			Options{Invariants: inv}, want["bakery-N2-M3-overflow"]},
		referenceCase{"bakerypp-N3-M2-bounded",
			func() *gcl.Prog { return specs.BakeryPP(specs.Config{N: 3, M: 2}) },
			Options{Invariants: inv, MaxStates: 500}, want["bakerypp-N3-M2-bounded"]})
}

// TestReferenceDigests pins BuildGraph and Check output at worker counts
// 0, 1, 2 and 4 against the captured reference digests.
func TestReferenceDigests(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 4} {
		for _, c := range referenceGraphs() {
			t.Run(fmt.Sprintf("graph/%s/w%d", c.name, workers), func(t *testing.T) {
				opts := c.opts
				opts.Workers = workers
				g, err := BuildGraph(c.p(), opts)
				if err != nil {
					t.Fatal(err)
				}
				if got := graphDigest(g); got != c.want {
					t.Errorf("graph digest %#016x, reference %#016x", got, c.want)
				}
			})
		}
		for _, c := range referenceChecks() {
			t.Run(fmt.Sprintf("check/%s/w%d", c.name, workers), func(t *testing.T) {
				opts := c.opts
				opts.Workers = workers
				if got := checkDigest(Check(c.p(), opts)); got != c.want {
					t.Errorf("check digest %#016x, reference %#016x", got, c.want)
				}
			})
		}
	}
}

// reportDigest covers every field of a starvation or no-progress report:
// sizes, moves, component, the quotient flag, and the entry path and
// closing cycle as rendered text. A nil report has its own digest.
func reportDigest(p *gcl.Prog, size, entryLen int, moves []int, comp []int32,
	quotient bool, entry *Trace, cycle []Step) uint64 {
	d := newDigest()
	d.word(int64(size))
	d.word(int64(entryLen))
	d.word(int64(len(moves)))
	for _, m := range moves {
		d.word(int64(m))
	}
	d.words(comp)
	if quotient {
		d.word(1)
	} else {
		d.word(0)
	}
	d.str(entry.String())
	start := entry.Init
	if n := len(entry.Steps); n > 0 {
		start = entry.Steps[n-1].State
	}
	d.str((&Trace{Prog: p, Init: start, Steps: cycle}).String())
	return uint64(d)
}

func starvationDigest(p *gcl.Prog, r *StarvationReport) uint64 {
	if r == nil {
		d := newDigest()
		d.str("nil")
		return uint64(d)
	}
	return reportDigest(p, r.ComponentSize, r.EntryLen, r.MovesByPid, r.Component, r.Quotient, &r.Entry, r.Cycle)
}

func noProgressDigest(p *gcl.Prog, r *NoProgressReport) uint64 {
	if r == nil {
		d := newDigest()
		d.str("nil")
		return uint64(d)
	}
	return reportDigest(p, r.ComponentSize, r.Entry.Len(), r.MovesByPid, nil, r.Quotient, &r.Entry, r.Cycle)
}

// TestReferenceReportDigests pins the cycle analyses' reports on full and
// quotient graphs: the Section 6.3 starvation pinned at l1, active
// starvation, Bakery++'s absent global livelock (a nil report) and the
// gateless variant's livelock. The graphs are built at Workers 0 and 2.
// The values were captured while each graph kind still had its own SCC
// pass and component scan, so the shared engine must reproduce both.
func TestReferenceReportDigests(t *testing.T) {
	want := map[string]uint64{
		"bakerypp-N3-M2/full/starve-l1":             0x5b7fc44925c97578,
		"bakerypp-N3-M2/full/starve-active":         0xc606a69ecdcff57e,
		"bakerypp-N3-M2/full/noprogress":            0xfda16f9ba02ccacf, // nil
		"bakerypp-N3-M2/quotient/starve-l1":         0x95ceb434c2a1e41c,
		"bakerypp-N3-M2/quotient/starve-active":     0x039df7317cba51a2,
		"bakerypp-N3-M2/quotient/noprogress":        0xfda16f9ba02ccacf, // nil
		"bakerypp-N3-M2-nogate/full/noprogress":     0x73ae9ece2e7c01d2,
		"bakerypp-N3-M2-nogate/quotient/noprogress": 0x31de27daea6c9211,
	}
	type analysis struct {
		name string
		run  func(g *Graph, p *gcl.Prog) uint64
	}
	bakerypp := func() *gcl.Prog { return specs.BakeryPP(specs.Config{N: 3, M: 2}) }
	nogate := func() *gcl.Prog { return specs.BakeryPP(specs.Config{N: 3, M: 2, NoGate: true}) }
	cases := []struct {
		prog     string
		p        func() *gcl.Prog
		analyses []analysis
	}{
		{"bakerypp-N3-M2", bakerypp, []analysis{
			{"starve-l1", func(g *Graph, p *gcl.Prog) uint64 {
				l1 := p.LabelIndex("l1")
				return starvationDigest(p, g.FindStarvation(func(pr *gcl.Prog, s gcl.State) bool {
					return pr.PC(s, 2) == l1
				}, []int{0, 1}))
			}},
			{"starve-active", func(g *Graph, p *gcl.Prog) uint64 {
				cs := p.LabelIndex("cs")
				return starvationDigest(p, g.FindStarvation(func(pr *gcl.Prog, s gcl.State) bool {
					return pr.PC(s, 2) != cs
				}, allPids(3)))
			}},
			{"noprogress", func(g *Graph, p *gcl.Prog) uint64 {
				return noProgressDigest(p, g.FindNoProgress(allPids(3)))
			}},
		}},
		{"bakerypp-N3-M2-nogate", nogate, []analysis{
			{"noprogress", func(g *Graph, p *gcl.Prog) uint64 {
				return noProgressDigest(p, g.FindNoProgress(allPids(3)))
			}},
		}},
	}
	for _, workers := range []int{0, 2} {
		for _, c := range cases {
			for _, sym := range []bool{false, true} {
				kind := "full"
				if sym {
					kind = "quotient"
				}
				p := c.p()
				g, err := BuildGraph(p, Options{Symmetry: sym, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				if g.Quotient() != sym {
					t.Fatalf("%s: Quotient() = %v, want %v", c.prog, g.Quotient(), sym)
				}
				for _, a := range c.analyses {
					name := fmt.Sprintf("%s/%s/%s/w%d", c.prog, kind, a.name, workers)
					t.Run(name, func(t *testing.T) {
						key := fmt.Sprintf("%s/%s/%s", c.prog, kind, a.name)
						if got := a.run(g, p); got != want[key] {
							t.Errorf("report digest %#016x, reference %#016x", got, want[key])
						}
					})
				}
			}
		}
	}
}
