package mc

// Contracts of the flat visited-set layout (store.go): the table stays exact
// when fingerprints collide, its slots and the row slabs hold no pointers
// for the garbage collector to scan, and the default exact store keeps the
// live heap per numbered state under a pinned ceiling.

import (
	"fmt"
	"reflect"
	"runtime"
	"runtime/metrics"
	"testing"

	"bakerypp/internal/gcl"
	"bakerypp/internal/specs"
)

// forcedProbe is a key paired with a chosen fingerprint: the stores take
// the fingerprint from the caller, so a test can force collisions that the
// real hash would practically never produce.
type forcedProbe struct {
	key gcl.State
	fp  uint64
}

// collidingProbes returns distinct keys under forced fingerprints: the
// first two share one fingerprint, the next two sit at fingerprints 0 and 1
// (0 is an ordinary fingerprint to the table, not an empty-slot marker),
// and the remaining bulk keys crowd onto those same three fingerprints, so
// the table grows while every probe walks long same-fingerprint clusters.
func collidingProbes(keys []gcl.State) []forcedProbe {
	fps := []uint64{42, 42, 0, 1}
	out := make([]forcedProbe, len(keys))
	for i, k := range keys {
		fp := fps[i%len(fps)]
		out[i] = forcedProbe{key: k, fp: fp}
	}
	return out
}

// distinctKeys returns n distinct reachable states, each canonical when
// canonical is set (one per orbit, as the symmetry-keyed store sees them).
func distinctKeys(t *testing.T, p *gcl.Prog, n int, canonical bool) []gcl.State {
	t.Helper()
	seen := map[string]bool{}
	var out []gcl.State
	for _, s := range reachableStates(p, 12*n) {
		if canonical {
			s = p.Canonicalize(s)
		}
		k := fmt.Sprint([]int32(s))
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, s)
		if len(out) == n {
			return out
		}
	}
	t.Fatalf("only %d distinct keys available, want %d", len(out), n)
	return nil
}

// TestStoreExactUnderForcedCollisions drives every exact store over keys
// whose fingerprints collide by construction: each key must stay
// retrievable with its own value, a fresh FindOrInsert must report fresh
// exactly once per key, a key probed under another key's fingerprint must
// miss, and, where values are payloads, Insert must replace the value.
func TestStoreExactUnderForcedCollisions(t *testing.T) {
	p := conformanceProg()
	// Half the keys sit on fingerprint 42, one shard of the 64-table
	// stores: 800 of them pass a table's initial 0.7 load limit (716 keys)
	// and force growth in every store.
	const bulk = 1600
	generic := []storeVariant{
		{name: "seq", plan: Plan{}},
		{name: "sharded", sharded: true, plan: Plan{}},
		{name: "spill", plan: Plan{Store: mustStore(t, "exact,spill")}},
	}
	for _, v := range generic {
		t.Run(v.name, func(t *testing.T) {
			st := v.build(t, p)
			probes := collidingProbes(distinctKeys(t, p, bulk, false))
			for i, pr := range probes {
				if val, fresh := st.FindOrInsert(pr.fp, pr.key, int32(i)); !fresh || val != int32(i) {
					t.Fatalf("key %d at fp %d: first FindOrInsert = (%d, %v), want (%d, true)", i, pr.fp, val, fresh, i)
				}
			}
			for i, pr := range probes {
				if val, fresh := st.FindOrInsert(pr.fp, pr.key, -7); fresh || val != int32(i) {
					t.Fatalf("key %d at fp %d: repeated FindOrInsert = (%d, %v), want (%d, false)", i, pr.fp, val, fresh, i)
				}
				if val, ok := st.Lookup(pr.fp, pr.key); !ok || val != int32(i) {
					t.Fatalf("key %d at fp %d: Lookup = (%d, %v), want (%d, true)", i, pr.fp, val, ok, i)
				}
			}
			requireForeignFpMisses(t, st, probes)
			// Insert replaces the value of one colliding key only.
			st.Insert(probes[1].fp, probes[1].key, 9001)
			st.Insert(probes[2].fp, probes[2].key, 9002)
			for i, pr := range probes[:8] {
				want := int32(i)
				switch i {
				case 1:
					want = 9001
				case 2:
					want = 9002
				}
				if val, ok := st.Lookup(pr.fp, pr.key); !ok || val != want {
					t.Fatalf("after replacement, key %d at fp %d: Lookup = (%d, %v), want (%d, true)", i, pr.fp, val, ok, want)
				}
			}
		})
	}
	for _, sym := range []bool{false, true} {
		t.Run(fmt.Sprintf("engine-sym=%v", sym), func(t *testing.T) {
			states := makeSlab(p.StateLen())
			st := newEngineStore(p, Plan{Symmetry: sym}, nil, &states)
			probes := collidingProbes(distinctKeys(t, p, bulk, sym))
			for i, pr := range probes {
				row, fresh := st.FindOrInsert(pr.fp, pr.key, states.len())
				if !fresh || row != int32(i) {
					t.Fatalf("key %d at fp %d: first FindOrInsert = (%d, %v), want (%d, true)", i, pr.fp, row, fresh, i)
				}
				// The engine numbers the state: its vector becomes the
				// row the store reads (the key itself without symmetry).
				states.push(pr.key)
			}
			for i, pr := range probes {
				if row, fresh := st.FindOrInsert(pr.fp, pr.key, states.len()); fresh || row != int32(i) {
					t.Fatalf("key %d at fp %d: repeated FindOrInsert = (%d, %v), want (%d, false)", i, pr.fp, row, fresh, i)
				}
				if row, ok := st.Lookup(pr.fp, pr.key); !ok || row != int32(i) {
					t.Fatalf("key %d at fp %d: Lookup = (%d, %v), want (%d, true)", i, pr.fp, row, ok, i)
				}
			}
			requireForeignFpMisses(t, st, probes)
		})
	}
}

// requireForeignFpMisses probes each colliding-group key under the other
// groups' fingerprints: the store is keyed on (fingerprint, key), so these
// must all miss.
func requireForeignFpMisses(t *testing.T, st visitedSet, probes []forcedProbe) {
	t.Helper()
	for i, pr := range probes[:4] {
		for _, fp := range []uint64{42, 0, 1} {
			if fp == pr.fp {
				continue
			}
			if _, ok := st.Lookup(fp, pr.key); ok {
				t.Fatalf("key %d stored at fp %d was found under fp %d", i, pr.fp, fp)
			}
		}
	}
}

// hasPointers reports whether values of type t contain anything the
// garbage collector must scan.
func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return false
	case reflect.Array:
		return t.Len() > 0 && hasPointers(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
		return false
	}
	return true
}

// TestStoreLayoutPointerFree pins the layout that keeps the visited set
// invisible to the garbage collector: the table's slot type and the slab's
// row element type hold no pointers.
func TestStoreLayoutPointerFree(t *testing.T) {
	if !hasPointers(reflect.TypeOf(gcl.State(nil))) {
		t.Fatal("hasPointers misses a slice header")
	}
	for name, typ := range map[string]reflect.Type{
		"fpTable slot":     reflect.TypeOf(fpTable{}.slots).Elem(),
		"slab row element": reflect.TypeOf(slab{}.blocks).Elem().Elem(),
	} {
		if hasPointers(typ) {
			t.Errorf("%s type %v contains pointers", name, typ)
		}
	}
}

// heapPerStateCeiling pins the live heap the default exact store keeps per
// numbered state after a full Bakery++ N=3 M=2 check: the state slab, the
// table slots, and the per-state metadata row. Measured at 105.1 B/state
// (go1.24, linux/amd64); the pin leaves 15% for allocator and toolchain
// drift. The layout before the slab (a slice header per state, key slice
// headers in every table slot) measured 185.5 B/state.
const heapPerStateCeiling = 121

// liveHeapBytes forces a collection and returns the bytes held by live
// heap objects.
func liveHeapBytes() uint64 {
	runtime.GC()
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(sample)
	return sample[0].Value.Uint64()
}

// TestExactStoreHeapPerState measures what one finished inline exploration
// keeps alive: live heap after the run, minus live heap before it, over
// the numbered states. The test's step numbers every successor, which on
// this clean model is exactly what Check's step does.
func TestExactStoreHeapPerState(t *testing.T) {
	p := specs.BakeryPP(specs.Config{N: 3, M: 2})
	opts := Options{Invariants: []Invariant{Mutex(), NoOverflow()}}
	plan, err := planFor(p, opts, SafetyAnalysis{Invariants: opts.Invariants})
	if err != nil {
		t.Fatal(err)
	}
	before := liveHeapBytes()
	e, err := newExplorer(p, opts, plan)
	if err != nil {
		t.Fatal(err)
	}
	e.start()
	complete := e.explore(func(head int32, x *expansion) bool {
		for i := range x.succs {
			e.number(head, x, i)
		}
		return true
	})
	after := liveHeapBytes()
	runtime.KeepAlive(e)
	states := e.numStates()
	if !complete || states != 36342 {
		t.Fatalf("unexpected run: complete=%v, %d states", complete, states)
	}
	perState := float64(after-before) / float64(states)
	t.Logf("live heap %.1f B/state over %d states", perState, states)
	if perState > heapPerStateCeiling {
		t.Fatalf("exact store keeps %.1f B of live heap per state, ceiling %d", perState, heapPerStateCeiling)
	}
}
