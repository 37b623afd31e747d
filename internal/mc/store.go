package mc

// The visited set. Every exploration in this package — Check and BuildGraph
// on both expansion paths, the FCFS monitor product, the refinement memo,
// and the quotient product's supplementary orbit index — resolves
// membership through one hashed index, fpTable: open addressing with
// linear probing over a flat array of (fingerprint, row) slots. A slot
// holds no key and no pointer. It names a row, and the key behind the row
// lives in a stride-addressed, block-allocated []int32 slab (the spill tier
// keeps it in the mmap arena instead). A probe matches on the fingerprint
// first, one integer compare, and confirms by comparing the probe key with
// the row's key, so membership stays exact, unlike TLC's default
// trust-the-fingerprint mode. A fingerprint collision costs one extra row
// comparison.
//
// Where the rows come from:
//
//   - engine stores (rowStore, built by newEngineStore): a row is a state
//     number and the value is the row itself. Without symmetry the row's key
//     IS the numbered state, read from the explorer's state slab, so the
//     store keeps no key copy at all. Under symmetry the store keeps a
//     parallel canonical-key slab whose row i holds the canonical key of
//     state i; the engines still keep and expand the concrete,
//     first-encountered representative, which keeps counterexample traces
//     concrete and replayable (docs/model-checking.md, "Symmetry
//     reduction"). The store stripes 64 tables by fingerprint, so each mesh
//     drain goroutine reads only the shards it owns (owner-computes). It
//     takes no locks: drains only read, the exploration loop's per-head
//     step is the only writer, and chunk barriers separate the two.
//   - generic stores (keyStore, built by newStateStore): the table owns a key
//     slab per key width plus vals[row]. These serve the monitor and memo
//     searches, whose values are payloads rather than state numbers, and
//     whose keys may carry extra words (a monitor phase, a belief id). The
//     pinned-symmetry plan (Plan.Pinned) keys on representatives canonical
//     over the permutations that fix the pinned pids — the FCFS monitor's
//     keying. The searches run single-threaded and use one unlocked table
//     set; the locked, 64-shard variant backs the compact store's exact
//     shadow.
//   - the lossy tiers (compactStore, bitstateStore below) and the exact spill
//     tier (spill.go). The compact store's rows address its second
//     fingerprint word and value; bitstate keeps no table at all.
//
// The exploration loop numbers a state with a single probe, FindOrInsert: a
// fresh key claims the empty slot the probe ended on.

import (
	"math"
	"math/bits"
	"sync"
	"sync/atomic"

	"bakerypp/internal/gcl"
)

// visitedSet is the membership interface the exploration loop needs: the
// advisory lookup (drains, the POR proviso, the quotient product) and the
// single-probe numbering of a fresh state.
type visitedSet interface {
	// Lookup returns the value stored under key, if present.
	Lookup(fp uint64, key gcl.State) (int32, bool)
	// FindOrInsert returns the value stored under key and false if the key
	// is present; otherwise it stores val under key and returns val and
	// true. The key is copied where the store keeps one.
	FindOrInsert(fp uint64, key gcl.State, val int32) (int32, bool)
}

// StateStore maps key states to int32 values (monitor and memo payloads,
// or state numbers) with fingerprint+Equal exactness.
type StateStore interface {
	visitedSet
	// Prepare computes the probe for s: a fingerprint and the key state it
	// was computed from. Non-symmetric stores key on s itself (no copy);
	// the symmetry-aware store keys on the canonical representative of s's
	// orbit. Optional extra words (a monitor phase, a belief id) are
	// appended to the key; they are rejected by symmetry-aware stores.
	Prepare(s gcl.State, extra ...int32) (uint64, gcl.State)
	// Insert stores val under key, replacing any previous value.
	Insert(fp uint64, key gcl.State, val int32)
}

// newStateStore builds the generic store a plan needs. Plan.Symmetry
// requires p.CanCanonicalize() and Plan.Pinned requires p.CanTrackPerms();
// planFor gates on those and falls back to the full search otherwise.
// Plan.Store selects the tier: exact in-heap, exact with arena-spilled keys
// (spill.go), hash compaction, or bitstate; planFor has already refused
// lossy tiers for analyses that need exactness. The only error is a spill
// arena that cannot be created.
func newStateStore(p *gcl.Prog, plan Plan) (StateStore, error) {
	switch plan.Store.Mode {
	case StoreCompact:
		return newCompactStore(p, plan), nil
	case StoreBitstate:
		return newBitstateStore(p, plan), nil
	}
	if plan.Store.Spill {
		ar, err := newArena(plan.Store.SpillDir)
		if err != nil {
			return nil, err
		}
		return newSpillStore(p, plan, ar), nil
	}
	return newKeyStore(p, false, plan), nil
}

// newEngineStore builds an exploration engine's visited set. The exact
// in-heap tier is a rowStore over the engine's own state slab (its
// canonical-key slab under symmetry); the lossy tiers are the generic ones;
// the spill tier shares the engine's pager arena ar.
func newEngineStore(p *gcl.Prog, plan Plan, ar *arena, states *slab) visitedSet {
	switch {
	case plan.Store.Mode == StoreCompact:
		return newCompactStore(p, plan)
	case plan.Store.Mode == StoreBitstate:
		return newBitstateStore(p, plan)
	case plan.Store.Spill:
		return newSpillStore(p, plan, ar)
	}
	st := &rowStore{keys: states}
	if plan.Symmetry {
		keys := makeSlab(p.StateLen())
		st.keys, st.own = &keys, true
	}
	return st
}

// prepare implements Prepare's key derivation for the generic stores. The
// key is an owned allocation whenever it differs from s; the stores copy
// what they keep, so callers may recycle it after the call.
func prepare(p *gcl.Prog, plan Plan, s gcl.State, extra []int32) (uint64, gcl.State) {
	switch {
	case plan.Symmetry:
		if len(extra) > 0 {
			panic("mc: symmetry-aware store cannot key on extra words")
		}
		c := p.Canonicalize(s)
		return c.Fingerprint(), c
	case plan.Pinned != nil:
		c := p.CanonicalizePinned(s, plan.Pinned)
		key := append(c, extra...)
		return key.Fingerprint(), key
	case len(extra) == 0:
		return s.Fingerprint(), s
	}
	key := make(gcl.State, len(s)+len(extra))
	copy(key, s)
	copy(key[len(s):], extra)
	return key.Fingerprint(), key
}

// slabBlockWords bounds a full slab block in int32 words (256 KiB): large
// enough that the block list stays short, small enough that a slab's
// partly filled last block wastes little.
const slabBlockWords = 1 << 16

// slabFirstRows is the row capacity a slab's first block starts with; it
// doubles up to the full block size, so the many small stores of the
// refinement search stay small.
const slabFirstRows = 64

// slab is append-only, stride-addressed row storage: row i occupies stride
// words of block i>>shift. Full blocks never move, so growth copies nothing
// and a row slice stays valid for the life of the slab. The first block
// grows by reallocation until it is full; a slice taken from it before that
// still reads the same content, because state and key words are never
// written after the push (stores rewrite only their value words, always
// through a fresh row). The element type is int32 and the blocks hold no
// pointers, so the garbage collector never scans row data.
type slab struct {
	stride int
	shift  uint // log2 of the rows per block
	blocks [][]int32
	n      int32
	// freed counts the leading blocks release has dropped.
	freed int
}

// makeSlab returns an empty slab of the given row width; each full block
// holds the largest power-of-two row count that fits slabBlockWords.
func makeSlab(stride int) slab {
	rows := slabBlockWords / max(stride, 1)
	return slab{stride: stride, shift: uint(bits.Len(uint(rows)) - 1)}
}

// len returns the number of rows pushed.
func (s *slab) len() int32 { return s.n }

// row returns row i, aliasing the slab.
func (s *slab) row(i int32) gcl.State {
	blk := s.blocks[i>>s.shift]
	off := int(i&(1<<s.shift-1)) * s.stride
	return gcl.State(blk[off : off+s.stride : off+s.stride])
}

// push copies x, followed by the tail words, into a new row and returns
// its index.
func (s *slab) push(x gcl.State, tail ...int32) int32 {
	if len(x)+len(tail) != s.stride {
		panic("mc: slab row width mismatch")
	}
	i := s.n
	b := int(i >> s.shift)
	full := s.stride << s.shift
	if b == len(s.blocks) {
		words := full
		if b == 0 {
			words = min(full, s.stride*slabFirstRows)
		}
		s.blocks = append(s.blocks, make([]int32, 0, words))
	}
	blk := s.blocks[b]
	if len(blk)+s.stride > cap(blk) {
		// Only the first block grows, doubling up to the full size.
		grown := make([]int32, len(blk), min(2*cap(blk), full))
		copy(grown, blk)
		blk = grown
	}
	s.blocks[b] = append(append(blk, x...), tail...)
	s.n++
	return i
}

// release drops every block whose rows all lie below row `below`; those
// rows must not be read again.
func (s *slab) release(below int32) {
	for s.freed < int(below>>s.shift) {
		s.blocks[s.freed] = nil
		s.freed++
	}
}

// fpSlot is one fpTable slot: a fingerprint and the row it indexes, stored
// as row+1 so the zero slot marks an empty position and every fingerprint,
// 0 included, is a legal key. Sixteen bytes, four slots per cache line, no
// pointers.
type fpSlot struct {
	fp  uint64
	ref int32 // row+1; 0 = empty
}

// fpTable is the hashed index under every store tier: open addressing with
// linear probing over one flat slot array. It stores no keys: callers pass
// an eq function that compares the probe key with a row's key, and eq runs
// only on a fingerprint match. Growth rehashes the slots without touching
// a key. NOT goroutine-safe; callers lock (or run single-threaded).
type fpTable struct {
	slots []fpSlot
	n     int
	mask  uint64
	// limit is the occupancy at which the table grows (0.7 load factor —
	// past that linear-probe clusters lengthen quickly).
	limit int
}

// fpTableMinSize is the initial slot count (power of two).
const fpTableMinSize = 1024

// fpShardBits is the number of low fingerprint bits the sharded stores
// consume for shard selection (shardCount == 1<<fpShardBits). Home slots
// are derived from the bits ABOVE them: within one shard every fingerprint
// agrees on its low 6 bits, so homing on fp&mask would leave only every
// 64th slot reachable as a home position and chain insertions into long
// probe clusters. Homing on fp>>fpShardBits restores uniform slot
// occupancy; the unsharded stores share the derivation — fmix64-finalized
// fingerprints are equidistributed in every bit range, so it costs them
// nothing.
const fpShardBits = 6

// homeSlot returns the initial probe position for a fingerprint.
func (t *fpTable) homeSlot(fp uint64) uint64 { return (fp >> fpShardBits) & t.mask }

func (t *fpTable) init(size int) {
	t.slots = make([]fpSlot, size)
	t.mask = uint64(size - 1)
	t.limit = size * 7 / 10
	t.n = 0
}

// walk follows fp's probe sequence. It returns the slot of the row whose
// key eq accepts and true, or the empty slot that ends the sequence and
// false.
func (t *fpTable) walk(fp uint64, eq func(row int32) bool) (uint64, bool) {
	for i := t.homeSlot(fp); ; i = (i + 1) & t.mask {
		s := t.slots[i]
		if s.ref == 0 {
			return i, false
		}
		if s.fp == fp && eq(s.ref-1) {
			return i, true
		}
	}
}

// find returns the row under fp whose key eq accepts.
func (t *fpTable) find(fp uint64, eq func(row int32) bool) (int32, bool) {
	if t.slots == nil {
		return -1, false
	}
	i, ok := t.walk(fp, eq)
	return t.slots[i].ref - 1, ok
}

// findOrInsert probes once: it returns the row under fp whose key eq
// accepts and false, or claims the empty slot the probe reached for row
// and returns row and true.
func (t *fpTable) findOrInsert(fp uint64, eq func(row int32) bool, row int32) (int32, bool) {
	if t.slots == nil {
		t.init(fpTableMinSize)
	} else if t.n >= t.limit {
		t.grow()
	}
	i, ok := t.walk(fp, eq)
	if ok {
		return t.slots[i].ref - 1, false
	}
	t.slots[i] = fpSlot{fp: fp, ref: row + 1}
	t.n++
	return row, true
}

// grow quadruples the table: rehashing copies every live slot, so fewer,
// larger steps cost less total zeroing and probing than doubling would; the
// transient low load factor after a step is cheap by comparison.
func (t *fpTable) grow() {
	old := t.slots
	t.init(len(old) * 4)
	for _, s := range old {
		if s.ref != 0 {
			i, _ := t.walk(s.fp, func(int32) bool { return false })
			t.slots[i] = s
			t.n++
		}
	}
}

// shardCount is the number of stripes in the sharded stores; a power of two
// so shard selection is a mask. 64 stripes keep lock contention negligible
// up to far more workers than any current machine provides.
const shardCount = 64

// rowStore is the exploration loop's exact store: table rows are state numbers and
// keys are read from keys — the explorer's state slab, or, when own is set
// (symmetry), the store's canonical-key slab, pushed in step with the
// numbering. tabs holds shardCount tables selected by fingerprint.
type rowStore struct {
	keys *slab
	own  bool
	tabs [shardCount]fpTable
}

func (st *rowStore) table(fp uint64) *fpTable {
	return &st.tabs[fp&(shardCount-1)]
}

func (st *rowStore) Lookup(fp uint64, key gcl.State) (int32, bool) {
	return st.table(fp).find(fp, func(r int32) bool { return st.keys.row(r).Equal(key) })
}

// FindOrInsert numbers key as row when it is fresh. row must be the next
// state number: without symmetry the engine pushes that state onto the slab
// the keys are read from before the next probe.
func (st *rowStore) FindOrInsert(fp uint64, key gcl.State, row int32) (int32, bool) {
	r, fresh := st.table(fp).findOrInsert(fp, func(r int32) bool { return st.keys.row(r).Equal(key) }, row)
	if fresh && st.own && st.keys.push(key) != row {
		panic("mc: canonical-key row out of step with the state numbering")
	}
	return r, fresh
}

// valTable is an fpTable whose row r is row r of a slab holding the row's
// key words (or a reference to the key) followed by its value word — the
// layout of the generic, compact and spill stores.
type valTable struct {
	mu   sync.RWMutex // held by probe when locked; keyStore locks its shard instead
	t    fpTable
	rows slab
}

// probeOp selects what valTable.probe does.
type probeOp uint8

const (
	opLookup       probeOp = iota // report the value; change nothing
	opFindOrInsert                // insert on a miss; keep the value on a hit
	opInsert                      // insert on a miss; replace the value on a hit
)

// probe runs op on the row under fp whose key eq accepts, returning the
// row's value (-1 for a lookup miss) and whether the key was present
// before the call. An insert pushes keyWords() followed by val as the new
// row.
func (vt *valTable) probe(locked bool, op probeOp, fp uint64, eq func(int32) bool, keyWords func() gcl.State, val int32) (int32, bool) {
	if locked && op == opLookup {
		vt.mu.RLock()
		defer vt.mu.RUnlock()
	} else if locked {
		vt.mu.Lock()
		defer vt.mu.Unlock()
	}
	if op == opLookup {
		r, ok := vt.t.find(fp, eq)
		if !ok {
			return -1, false
		}
		return vt.rows.row(r)[vt.rows.stride-1], true
	}
	r, fresh := vt.t.findOrInsert(fp, eq, vt.rows.len())
	if fresh {
		vt.rows.push(keyWords(), val)
		return val, false
	}
	v := &vt.rows.row(r)[vt.rows.stride-1]
	if op == opInsert {
		*v = val
	}
	return *v, true
}

// keyStore is the generic exact store: per shard, one valTable per key
// width, whose rows hold the key words and the value. The sharded variant
// locks each shard with a read-write mutex, so it is safe for concurrent
// use; the unsharded one is not.
type keyStore struct {
	p      *gcl.Prog
	plan   Plan
	locked bool
	shards []keyShard
}

type keyShard struct {
	mu   sync.RWMutex
	sets []*valTable
}

func newKeyStore(p *gcl.Prog, sharded bool, plan Plan) *keyStore {
	st := &keyStore{p: p, plan: plan, locked: sharded, shards: make([]keyShard, 1)}
	if sharded {
		st.shards = make([]keyShard, shardCount)
	}
	return st
}

func (st *keyStore) Prepare(s gcl.State, extra ...int32) (uint64, gcl.State) {
	return prepare(st.p, st.plan, s, extra)
}

func (st *keyStore) probe(op probeOp, fp uint64, key gcl.State, val int32) (int32, bool) {
	sh := &st.shards[fp&uint64(len(st.shards)-1)]
	if st.locked && op == opLookup {
		sh.mu.RLock()
		defer sh.mu.RUnlock()
	} else if st.locked {
		sh.mu.Lock()
		defer sh.mu.Unlock()
	}
	var vt *valTable
	for _, set := range sh.sets {
		if set.rows.stride == len(key)+1 {
			vt = set
		}
	}
	if vt == nil {
		if op == opLookup {
			return -1, false
		}
		vt = &valTable{rows: makeSlab(len(key) + 1)}
		sh.sets = append(sh.sets, vt)
	}
	eq := func(r int32) bool { return vt.rows.row(r)[:len(key)].Equal(key) }
	return vt.probe(false, op, fp, eq, func() gcl.State { return key }, val)
}

func (st *keyStore) Lookup(fp uint64, key gcl.State) (int32, bool) {
	return st.probe(opLookup, fp, key, -1)
}

func (st *keyStore) FindOrInsert(fp uint64, key gcl.State, val int32) (int32, bool) {
	v, found := st.probe(opFindOrInsert, fp, key, val)
	return v, !found
}

func (st *keyStore) Insert(fp uint64, key gcl.State, val int32) { st.probe(opInsert, fp, key, val) }

// hiSeedBase seeds the compact store's second fingerprint word; xor-ing the
// run seed in re-rolls both words together. Matches gcl.Fingerprint128's
// high-word seed so a seed-0 wide key IS the state's Fingerprint128.
const hiSeedBase = 0x243f6a8885a308d3

// compactStore is hash compaction (TLC's default trust-the-fingerprint
// scheme, SPIN -DHC): states are represented by a 64- or 128-bit
// fingerprint only. Each shard's table is keyed on the first fingerprint
// word, and its rows hold the second word (128-bit mode only, as two int32
// halves) and the value — the key vector itself is gone, which is the
// compression. A fingerprint collision makes a fresh state look visited — a
// false HIT, silently omitting the state — so verdicts are probabilistic;
// Report bounds the expected omissions with the birthday estimate. False
// MISSES cannot happen: an inserted key always probes back to the same
// fingerprint (the fuzz target FuzzCompactStoreNoFalseMiss pins this).
// Concurrent-safe via striped RWMutexes, so it serves either engine.
type compactStore struct {
	p       *gcl.Prog
	plan    Plan
	wide    bool // 128-bit keys
	seed    uint64
	shadow  StateStore // exact cross-check when Plan.Store.Shadow
	diverge atomic.Int64
	entries atomic.Int64
	shards  [shardCount]valTable
}

func newCompactStore(p *gcl.Prog, plan Plan) *compactStore {
	st := &compactStore{p: p, plan: plan,
		wide: plan.Store.CompactBits == 128, seed: plan.Store.Seed}
	stride := 1
	if st.wide {
		stride = 3
	}
	for i := range st.shards {
		st.shards[i].rows = makeSlab(stride)
	}
	if plan.Store.Shadow {
		st.shadow = newKeyStore(p, true, plan)
	}
	return st
}

func (st *compactStore) Prepare(s gcl.State, extra ...int32) (uint64, gcl.State) {
	return prepare(st.p, st.plan, s, extra)
}

// slots derives the store key words from the prepared probe: the low word
// is the standard fingerprint (reused from Prepare) unless a seed re-rolls
// it, the high word the independent second hash in 128-bit mode.
func (st *compactStore) slots(fp uint64, key gcl.State) (lo, hi uint64) {
	lo = fp
	if st.seed != 0 {
		lo = key.FingerprintSeeded(st.seed)
	}
	if st.wide {
		hi = key.FingerprintSeeded(hiSeedBase ^ st.seed)
	}
	return lo, hi
}

// probe runs op on the compact table and mirrors it on the exact shadow:
// lookups and find-or-inserts count a divergence when the shadow's answer
// differs, and every insertion is repeated there (Shadow runs only).
func (st *compactStore) probe(op probeOp, fp uint64, key gcl.State, val int32) (int32, bool) {
	lo, hi := st.slots(fp, key)
	sh := &st.shards[lo&(shardCount-1)]
	words := [2]int32{int32(hi), int32(hi >> 32)}
	n := sh.rows.stride - 1 // second-word halves per row: 2, or 0 in 64-bit mode
	eq := func(r int32) bool { return n == 0 || [2]int32(sh.rows.row(r)[:2]) == words }
	got, found := sh.probe(true, op, lo, eq, func() gcl.State {
		st.entries.Add(1)
		return words[:n]
	}, val)
	if st.shadow != nil {
		if op != opInsert {
			if sval, sok := st.shadow.Lookup(fp, key); sok != found || (found && sval != got) {
				st.diverge.Add(1)
			}
		}
		if op == opInsert || (op == opFindOrInsert && !found) {
			st.shadow.Insert(fp, key, val)
		}
	}
	return got, found
}

func (st *compactStore) Lookup(fp uint64, key gcl.State) (int32, bool) {
	return st.probe(opLookup, fp, key, -1)
}

func (st *compactStore) FindOrInsert(fp uint64, key gcl.State, val int32) (int32, bool) {
	v, found := st.probe(opFindOrInsert, fp, key, val)
	return v, !found
}

func (st *compactStore) Insert(fp uint64, key gcl.State, val int32) { st.probe(opInsert, fp, key, val) }

func (st *compactStore) Report() StoreReport {
	k := float64(st.entries.Load())
	bits := 64
	mode := "compact64"
	if st.wide {
		bits, mode = 128, "compact"
	}
	// Birthday bound: expected colliding pairs ≈ k(k-1)/2^(bits+1); each
	// collision omits at least the later state, so this bounds expected
	// omissions from fingerprint aliasing.
	expected := math.Ldexp(k*(k-1), -(bits + 1))
	return StoreReport{
		Mode:              mode,
		Lossy:             true,
		Seed:              st.seed,
		Entries:           st.entries.Load(),
		ExpectedOmissions: expected,
		Confidence:        confidenceFrom(expected),
		ShadowDivergences: st.diverge.Load(),
	}
}

// bitstateStore is SPIN's supertrace/bitstate hashing: a fixed array of
// 2^log2 bits, k bits per state by double hashing. It stores no values
// (Lookup reports membership with val -1), so the planner disables POR
// alongside (the proviso needs stored depths) and every value-carrying
// analysis refuses it. Omission risk is far higher than compact mode —
// this is the frontier-probing tier; Report converts the final fill ratio
// into an expected-omission bound and a coverage confidence, which the
// verdict banner reports instead of claiming exhaustiveness. Lock-free:
// bit sets use CAS, probes use atomic loads, so it is concurrent-safe for
// any engine phase discipline.
type bitstateStore struct {
	p       *gcl.Prog
	plan    Plan
	seed    uint64
	k       int
	mask    uint64
	words   []uint64
	bitsSet atomic.Int64
	probes  atomic.Int64
	entries atomic.Int64
}

func newBitstateStore(p *gcl.Prog, plan Plan) *bitstateStore {
	bits := uint64(1) << plan.Store.BitstateLog2
	return &bitstateStore{p: p, plan: plan, seed: plan.Store.Seed,
		k: plan.Store.BitstateHashes, mask: bits - 1, words: make([]uint64, bits/64)}
}

func (st *bitstateStore) Prepare(s gcl.State, extra ...int32) (uint64, gcl.State) {
	return prepare(st.p, st.plan, s, extra)
}

// indices yields the k bit positions for a probe via double hashing:
// h1 + i*h2 over the array, h2 forced odd so the stride walks the whole
// power-of-two table.
func (st *bitstateStore) indices(fp uint64, key gcl.State, visit func(word, bit uint64) bool) {
	h1 := fp
	if st.seed != 0 {
		h1 = key.FingerprintSeeded(st.seed)
	}
	h2 := key.FingerprintSeeded(hiSeedBase^st.seed) | 1
	for i := 0; i < st.k; i++ {
		idx := (h1 + uint64(i)*h2) & st.mask
		if !visit(idx>>6, uint64(1)<<(idx&63)) {
			return
		}
	}
}

func (st *bitstateStore) Lookup(fp uint64, key gcl.State) (int32, bool) {
	st.probes.Add(1)
	all := true
	st.indices(fp, key, func(word, bit uint64) bool {
		if atomic.LoadUint64(&st.words[word])&bit == 0 {
			all = false
			return false
		}
		return true
	})
	if !all {
		return -1, false
	}
	return -1, true
}

// FindOrInsert is Lookup then Insert: one probe is counted per call, as
// the omission bound assumes.
func (st *bitstateStore) FindOrInsert(fp uint64, key gcl.State, val int32) (int32, bool) {
	if _, ok := st.Lookup(fp, key); ok {
		return -1, false
	}
	st.Insert(fp, key, val)
	return val, true
}

func (st *bitstateStore) Insert(fp uint64, key gcl.State, _ int32) {
	fresh := int64(0)
	st.indices(fp, key, func(word, bit uint64) bool {
		for {
			old := atomic.LoadUint64(&st.words[word])
			if old&bit != 0 {
				return true
			}
			if atomic.CompareAndSwapUint64(&st.words[word], old, old|bit) {
				fresh++
				return true
			}
		}
	})
	if fresh > 0 {
		st.bitsSet.Add(fresh)
	}
	st.entries.Add(1)
}

func (st *bitstateStore) Report() StoreReport {
	bits := int64(st.mask + 1)
	set := st.bitsSet.Load()
	fill := float64(set) / float64(bits)
	// Each Lookup false-positives with probability ≤ fill^k at the FINAL
	// fill ratio (fill only grows), so probes × fill^k upper-bounds the
	// expected number of fresh states wrongly treated as visited.
	expected := float64(st.probes.Load()) * math.Pow(fill, float64(st.k))
	return StoreReport{
		Mode:              "bitstate",
		Lossy:             true,
		Seed:              st.seed,
		Entries:           st.entries.Load(),
		ExpectedOmissions: expected,
		Confidence:        confidenceFrom(expected),
		BitsSet:           set,
		Bits:              bits,
		Hashes:            st.k,
	}
}
