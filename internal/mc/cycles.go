package mc

import "slices"

// The cycle analyses' shared engine. FindStarvation and FindNoProgress ask
// the same question of two graph kinds — the full graph's per-state Edge
// lists and, on a quotient graph, the tracking product's CSR arrays
// (quotient.go): is there a reachable strongly connected component, inside
// a node and edge filter, in which every required process moves? One
// iterative Tarjan and one fair-component scan answer it for both, reading
// the graph through cycleGraph.

// cycleGraph is the adjacency the engine reads. Edges are addressed as
// (v, ei), ei the index within v's list, so filters see the same
// coordinates on either representation.
type cycleGraph interface {
	numNodes() int32
	degree(v int32) int32
	// edge returns the target and the moving pid of v's ei-th edge.
	edge(v, ei int32) (to int32, pid int8)
	// depthOf is v's BFS depth from the initial node.
	depthOf(v int32) int32
}

// sccs runs iterative Tarjan over g restricted to nodes passing nodeOK and
// edges passing edgeOK (nil passes everything; an edge also needs its
// target to pass nodeOK). It hands each component to yield in reverse
// topological order, taking roots in index order and edges in adjacency
// order, so both the sequence and each component's member order are
// deterministic. Trivial single-node components without a self-loop are
// included. The component slice is reused: yield must copy what it keeps,
// and returning false stops the search.
func sccs(g cycleGraph, nodeOK func(v int32) bool, edgeOK func(v, ei int32) bool, yield func(comp []int32) bool) {
	n := g.numNodes()
	index := make([]int32, n)
	low := make([]int32, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = -1
	}
	var (
		stack, comp []int32
		counter     int32
	)
	type frame struct{ v, edge, deg int32 }
	var call []frame
	visit := func(v int32) {
		index[v] = counter
		low[v] = counter
		counter++
		stack = append(stack, v)
		onStack[v] = true
		call = append(call, frame{v: v, deg: g.degree(v)})
	}
	for root := int32(0); root < n; root++ {
		if index[root] != -1 || (nodeOK != nil && !nodeOK(root)) {
			continue
		}
		visit(root)
		for len(call) > 0 {
			f := &call[len(call)-1]
			if f.edge < f.deg {
				v, ei := f.v, f.edge
				f.edge++
				w, _ := g.edge(v, ei)
				if (nodeOK != nil && !nodeOK(w)) || (edgeOK != nil && !edgeOK(v, ei)) {
					continue
				}
				if index[w] == -1 {
					visit(w)
				} else if onStack[w] && index[w] < low[v] {
					low[v] = index[w]
				}
				continue
			}
			v := f.v
			call = call[:len(call)-1]
			if len(call) > 0 {
				if pv := call[len(call)-1].v; low[v] < low[pv] {
					low[pv] = low[v]
				}
			}
			if low[v] == index[v] {
				comp = comp[:0]
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp = append(comp, w)
					if w == v {
						break
					}
				}
				if !yield(comp) {
					return
				}
			}
		}
	}
}

// fairComp is a component picked by the fair-component scan.
type fairComp struct {
	// nodes lists the members in Tarjan pop order.
	nodes []int32
	// entry is the member of least BFS depth, the first in nodes on ties.
	entry int32
	// moves counts the component's internal edges by moving pid.
	moves []int
	// mark[v] == epoch exactly for the members.
	mark  []int32
	epoch int32
}

// findFair is the fair-component scan behind FindStarvation and
// FindNoProgress on both graph kinds. Over the components of g under the
// filters, in sccs order, it skips those with no internal edge (a lone
// node without a self-loop), counts the internal edges by moving pid, and
// requires every mustMove pid — which must lie in [0, n) — to move. The
// first candidate accept takes is returned (accept nil takes any); a
// rejected candidate lets the scan go on. Nil when none is taken. During
// accept, c.nodes is the engine's reused slice; the returned component
// owns a copy.
func findFair(g cycleGraph, n int, nodeOK func(v int32) bool, edgeOK func(v, ei int32) bool,
	mustMove []int, accept func(c *fairComp) bool) *fairComp {
	c := &fairComp{mark: make([]int32, g.numNodes()), moves: make([]int, n)}
	var found *fairComp
	sccs(g, nodeOK, edgeOK, func(comp []int32) bool {
		c.epoch++
		for _, v := range comp {
			c.mark[v] = c.epoch
		}
		clear(c.moves)
		internal := false
		for _, v := range comp {
			for ei, deg := int32(0), g.degree(v); ei < deg; ei++ {
				w, pid := g.edge(v, ei)
				if c.mark[w] == c.epoch && (edgeOK == nil || edgeOK(v, ei)) {
					internal = true
					c.moves[pid]++
				}
			}
		}
		if !internal {
			return true
		}
		for _, pid := range mustMove {
			if pid < 0 || pid >= n || c.moves[pid] == 0 {
				return true
			}
		}
		c.nodes = comp
		c.entry = comp[0]
		for _, v := range comp {
			if g.depthOf(v) < g.depthOf(c.entry) {
				c.entry = v
			}
		}
		if accept != nil && !accept(c) {
			return true
		}
		c.nodes = slices.Clone(comp)
		found = c
		return false
	})
	return found
}
