package mc

// The exploration loop. Check and BuildGraph run one breadth-first search,
// explore, which hands every queued state ("head") to a per-head step in
// numbering order: the safety step in mc.go, the graph step in graph.go.
// The step numbers the head's fresh successors and decides when to stop.
// It is the only writer of the visited set and of the state numbering, so
// every observable — state numbers, parent attribution, edge order, stop
// point — depends only on the order of step calls, never on how or where
// the heads were expanded. See docs/model-checking.md for the design.
//
// A head is expanded on one of two paths:
//
//   - inline: one head at a time on the calling goroutine. Its successors
//     and store probes stay in worker context 0's scratch and the step
//     merges them straight from there; the store probe and the invariant
//     check both wait for the merge, so each successor costs one probe and
//     only fresh states are checked. Workers 0 and 1 always run inline, and
//     so does every chunk shorter than minMeshChunk heads.
//   - mesh: a chunk of queued heads is expanded by the worker pool in two
//     barrier-separated stages before the step merges it. Stage one: the
//     workers claim heads in batches through an atomic cursor, generate
//     and batch-prepare their successors into their own scratch, and route
//     each successor, by fingerprint, into a per-(producer, owner) inbox.
//     Stage two (owner-computes): the visited store's 64 fingerprint
//     shards are statically partitioned over the workers (owner = shard
//     mod workers); each owner drains the inboxes addressed to it,
//     resolving advisory verdicts — already numbered? invariant broken? —
//     with unlocked lookups confined to the shards it owns. The stages
//     never overlap the merge (the barriers order them), which remains the
//     sole writer.
//
// Profiling: the mesh's expansion and drain goroutines run under
// runtime/pprof labels ("mc-stage" = expand|drain, plus
// "mc-worker"/"mc-shard-owner"), so CPU profiles taken with -cpuprofile can
// be sliced per stage and per worker; see the Performance section of
// docs/model-checking.md.

import (
	"context"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"

	"bakerypp/internal/gcl"
)

// invUnchecked marks an advisory invariant verdict the drain did not
// compute (the successor was already numbered, or there are no
// invariants); the merge evaluates lazily, and only on fresh states.
const invUnchecked int32 = -2

// expansion is the ordered successor list of one head, with each
// successor's prepared store probe at the same index.
type expansion struct {
	succs []gcl.Succ
	preps []prep
	// adv holds the mesh drain's advisory verdicts; nil on the inline path.
	adv []advice
	// progress records whether any successor was a program action (crash
	// pseudo-transitions do not count), feeding deadlock detection.
	progress bool
	// aPid/aLo/aHi describe the ample segment succs[aLo:aHi] when
	// partial-order reduction selected a process at expansion time (aPid
	// = -1 otherwise). The step commits to the segment only after ample
	// re-checks the C3 proviso in merge order.
	aPid, aLo, aHi int
	// lazy is set on an inline expansion that prepared only its ample
	// segment; ample prepares the rest in this context if the proviso
	// rejects the reduction, so a committed reduction never canonicalizes
	// the successors it drops.
	lazy *wctx
	// wk and at locate a mesh expansion's records in worker wk's scratch;
	// the slices above are taken after the drain barrier, since the
	// scratch arrays may move while the chunk expands.
	wk, at int
}

// advice is a mesh successor's advisory verdicts from the owner-computes
// drain. Each successor is routed to exactly one owner, so the writes are
// exclusive; the barriers order them against expansion and merge.
type advice struct {
	// seen is the successor's state number if its owner found it already
	// numbered, else -1. A -1 successor may still duplicate a state first
	// reached in the same chunk; the merge resolves that deterministically.
	seen int32
	// violated is the index into Options.Invariants of the first
	// invariant the state breaks, -1 if none, or invUnchecked.
	violated int32
}

// inbox is one single-producer single-consumer lane of the owner-computes
// routing mesh: expansion worker p appends the scratch indices of the
// successors whose shards owner o owns into inboxes[p][o], and owner o
// drains every inboxes[*][o] after the expansion barrier. The barrier
// orders the two sides, so a plain slice suffices; its capacity is retained
// across chunks, making steady-state push and drain allocation-free (pinned
// by TestInboxPushDrainAllocFree).
type inbox struct {
	items []int32
}

// maxChunk is how many queued heads one mesh chunk covers. Chunks need to
// be wide enough to amortise the spawn/barrier cost over real work and
// narrow enough that a bounded run (MaxStates, early violation stop) wastes
// at most one chunk of speculative expansion.
const maxChunk = 4096

// minMeshChunk is the chunk length below which even a multi-worker run
// expands inline (the first few BFS levels): too little work to split.
const minMeshChunk = 64

// numWorkers resolves Options.Workers to an expansion pool size: a
// negative count means GOMAXPROCS, and 0 runs like 1.
func numWorkers(w int) int {
	if w < 0 {
		w = runtime.GOMAXPROCS(0)
	}
	return max(w, 1)
}

// start numbers the initial state as state 0 and returns the index of the
// first invariant it violates, or -1.
func (e *explorer) start() int32 {
	w := &e.wcs[0]
	w.reset()
	init := e.p.InitState()
	x := expansion{succs: []gcl.Succ{{State: init, Pid: -1, LabelIdx: crashLabelIdx}}}
	w.preps = growPreps(w.preps, 1)
	x.preps = w.preps
	e.prepSuccs(w, x.succs, x.preps)
	e.number(-1, &x, 0)
	return e.checkInvariants(init)
}

// explore runs the BFS over the states numbered so far (start numbers the
// first), calling step on each head's expansion in numbering order. It
// returns true when the queue drains and false as soon as step does. The
// queue is taken in chunks of up to maxChunk heads; a chunk runs on the
// mesh path when the pool has several workers and the chunk holds at
// least minMeshChunk heads, and inline otherwise.
func (e *explorer) explore(step func(head int32, x *expansion) bool) bool {
	var x expansion
	for next := int32(0); next < e.meta.len(); {
		lo, hi := next, next+min(e.meta.len()-next, maxChunk)
		next = hi
		if e.workers == 1 || hi-lo < minMeshChunk {
			for head := lo; head < hi; head++ {
				e.expandInline(head, &x)
				if !step(head, &x) {
					return false
				}
				e.releaseState(head)
			}
			continue
		}
		exps := e.expandChunk(lo, hi)
		for i := range exps {
			if !step(lo+int32(i), &exps[i]) {
				return false
			}
			e.releaseState(lo + int32(i))
		}
	}
	return true
}

// releaseState marks state i expanded. In release mode every slab block
// holding only expanded states is freed — the lossy non-spill memory win:
// only the frontier's blocks stay resident. Safe on both paths: the inline
// path expands the next head only after this one is merged, and a mesh
// chunk is fully expanded before its first head is merged.
func (e *explorer) releaseState(i int32) {
	if e.release {
		e.states.release(i + 1)
	}
}

// expandInline expands one head into worker context 0's scratch, which it
// recycles first: the previous head is fully merged, and the step copied
// every fresh state and key out. Under POR only the ample segment's probes
// are prepared up front (see expansion.lazy).
func (e *explorer) expandInline(head int32, x *expansion) {
	w := &e.wcs[0]
	w.reset()
	succs, aPid, aLo, aHi := e.successors(e.headState(w, head), w)
	w.preps = growPreps(w.preps, len(succs))
	*x = expansion{succs: succs, preps: w.preps, progress: anyProgress(succs), aPid: aPid, aLo: aLo, aHi: aHi}
	if aPid >= 0 {
		e.prepSuccs(w, succs[aLo:aHi], w.preps[aLo:aHi])
		x.lazy = w
		return
	}
	e.prepSuccs(w, succs, w.preps)
}

// anyProgress reports whether some successor is a program action rather
// than a crash pseudo-transition.
func anyProgress(succs []gcl.Succ) bool {
	for i := range succs {
		if succs[i].LabelIdx >= 0 {
			return true
		}
	}
	return false
}

// expandChunk expands the heads numbered in [lo, hi) — the next chunk of
// the BFS queue, contiguous because numbering follows discovery order — on
// the mesh path, returning their expansions in order.
func (e *explorer) expandChunk(lo, hi int32) []expansion {
	n := int(hi - lo)
	if cap(e.exps) < n {
		e.exps = make([]expansion, n)
	}
	out := e.exps[:n]
	workers := min(e.workers, n)
	// Chunk boundary: every earlier head is fully merged, so the worker
	// scratch and the inboxes can be recycled wholesale.
	for w := range e.wcs {
		e.wcs[w].reset()
	}
	for p := 0; p < workers; p++ {
		for o := 0; o < workers; o++ {
			e.inboxes[p][o].items = e.inboxes[p][o].items[:0]
		}
	}
	batch := min(max(n/(workers*4), 1), 64)
	var cursor int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			labels := pprof.Labels("mc-stage", "expand", "mc-worker", strconv.Itoa(w))
			pprof.Do(context.Background(), labels, func(context.Context) {
				wc, lanes := &e.wcs[w], e.inboxes[w][:workers]
				for {
					end := atomic.AddInt64(&cursor, int64(batch))
					start := end - int64(batch)
					if start >= int64(n) {
						return
					}
					for i := start; i < min(end, int64(n)); i++ {
						e.expandMesh(lo+int32(i), &out[i], w)
						for k := out[i].at; k < len(wc.preps); k++ {
							o := int(wc.preps[k].fp&(shardCount-1)) % workers
							lanes[o].items = append(lanes[o].items, int32(k))
						}
					}
				}
			})
		}(w)
	}
	wg.Wait()
	var dg sync.WaitGroup
	for o := 0; o < workers; o++ {
		dg.Add(1)
		go func(o int) {
			defer dg.Done()
			labels := pprof.Labels("mc-stage", "drain", "mc-shard-owner", strconv.Itoa(o))
			pprof.Do(context.Background(), labels, func(context.Context) {
				e.drainOwner(o, workers)
			})
		}(o)
	}
	dg.Wait()
	for i := range out {
		x := &out[i]
		wc, end := &e.wcs[x.wk], x.at+len(x.succs)
		x.succs, x.preps, x.adv = wc.buf.Succs()[x.at:end], wc.preps[x.at:end], wc.adv[x.at:end]
	}
	return out
}

// expandMesh expands one head on worker w, appending its successors,
// probes and blank advice to w's scratch from index x.at on. It reads only
// the numbered-state prefix — never the visited store — and writes only
// its own result slot and w's scratch, so expansion workers share nothing
// but read-only data.
func (e *explorer) expandMesh(head int32, x *expansion, w int) {
	wc := &e.wcs[w]
	at := len(wc.preps)
	succs, aPid, aLo, aHi := e.successors(e.headState(wc, head), wc)
	wc.preps = slices.Grow(wc.preps, len(succs))[:at+len(succs)]
	e.prepSuccs(wc, succs, wc.preps[at:])
	for range succs {
		wc.adv = append(wc.adv, advice{seen: -1, violated: invUnchecked})
	}
	*x = expansion{succs: succs, progress: anyProgress(succs), aPid: aPid, aLo: aLo, aHi: aHi, wk: w, at: at}
}

// drainOwner resolves the advisory verdicts of every successor routed to
// shard-owner o: a visited-set lookup (unlocked and confined to o's own
// shards for the exact in-heap tier; the other tiers lock), then invariant
// pre-evaluation on successors that look fresh.
func (e *explorer) drainOwner(o, workers int) {
	checkInv := len(e.opts.Invariants) > 0
	for p := 0; p < workers; p++ {
		wc := &e.wcs[p]
		succs := wc.buf.Succs()
		for _, k := range e.inboxes[p][o].items {
			pr, a := &wc.preps[k], &wc.adv[k]
			if idx, ok := e.store.Lookup(pr.fp, pr.key); ok {
				a.seen = idx
				continue
			}
			if checkInv {
				a.violated = e.checkInvariants(succs[k].State)
			}
		}
	}
}

// ample returns the range of x's successors the step commits at a head of
// depth d: the ample segment when POR selected one and the C3 proviso
// holds in merge order, all of them otherwise. The proviso: every ample
// successor is either absent from the visited store (an earlier merge may
// have inserted it since expansion) or stored at exactly depth d+1. Every
// edge a reduced expansion keeps therefore strictly increases depth by
// one, and depth cannot strictly increase around a cycle, so every cycle
// of the reduced graph contains at least one fully expanded state — no
// enabled action is ignored forever. (The classic stricter proviso — all
// successors fresh — refuses harmless cross-edges within the next BFS
// level, which in diamond-shaped interleaving lattices vetoes most
// reductions.) A drain-time seen verdict is reused for its index: the
// store never deletes.
func (e *explorer) ample(x *expansion, d int32) (lo, hi int) {
	if x.aPid < 0 {
		return 0, len(x.succs)
	}
	ok := true
	for i := x.aLo; i < x.aHi && ok; i++ {
		idx, found := int32(-1), false
		if x.adv != nil {
			idx, found = x.adv[i].seen, x.adv[i].seen >= 0
		}
		if !found {
			idx, found = e.store.Lookup(x.preps[i].fp, x.preps[i].key)
		}
		ok = !found || e.depthOf(idx) == d+1
	}
	if ok {
		return x.aLo, x.aHi
	}
	if w := x.lazy; w != nil {
		e.prepSuccs(w, x.succs[:x.aLo], x.preps[:x.aLo])
		e.prepSuccs(w, x.succs[x.aHi:], x.preps[x.aHi:])
	}
	return 0, len(x.succs)
}

// number gives successor i of head its state number, appending the state
// and its metadata row if it is fresh; it returns the number and whether
// the state was fresh. One store probe decides freshness and, for a fresh
// state, claims its table slot. The successor and its key may point into
// recycled scratch: the store copies the key it keeps, and appendState
// copies the state.
func (e *explorer) number(head int32, x *expansion, i int) (int32, bool) {
	if x.adv != nil && x.adv[i].seen >= 0 {
		return x.adv[i].seen, false
	}
	pr, sc := &x.preps[i], &x.succs[i]
	idx, fresh := e.store.FindOrInsert(pr.fp, pr.key, e.meta.len())
	if !fresh {
		return idx, false
	}
	e.appendState(sc.State)
	m := e.metaBuf
	m[metaDepth] = 0
	if head >= 0 {
		m[metaDepth] = e.depthOf(head) + 1
	}
	if e.traceable {
		m[metaParent], m[metaPid], m[metaLabel] = head, int32(sc.Pid), sc.LabelIdx
	}
	if e.trackPerms {
		m[metaPerm] = pr.perm
	}
	e.meta.push(m)
	return idx, true
}

// violated returns the index of the first invariant fresh successor i
// breaks, or -1: the drain's verdict when it computed one, otherwise an
// evaluation now.
func (e *explorer) violated(x *expansion, i int) int32 {
	if x.adv != nil && x.adv[i].violated != invUnchecked {
		return x.adv[i].violated
	}
	return e.checkInvariants(x.succs[i].State)
}

// violation reports invariant inv broken at state idx, with the shortest
// trace to it.
func (e *explorer) violation(inv, idx int32) *Violation {
	return &Violation{Invariant: e.opts.Invariants[inv].Name, Trace: e.trace(idx)}
}
