package sched

import (
	"math/bits"

	"mummi/internal/cluster"
)

// Policy selects the resource-matching strategy.
type Policy int

// Matching policies.
const (
	// LowIDExhaustive models the Flux behaviour the paper hit at scale:
	// the matcher "traverses the resource graph in its entirety for each
	// job, particularly in the beginning when there are many vacant
	// resources, creating 'too many choices'", then takes the
	// lowest-resource-ID feasible placement.
	LowIDExhaustive Policy = iota
	// FirstMatch is the paper's fix: assign the first matching resource set
	// greedily. "Although an aggressive policy like this may not be
	// suitable for batch job scheduling, it is well-suited for a workflow
	// like MuMMI."
	FirstMatch
)

// String names the policy.
func (p Policy) String() string {
	if p == FirstMatch {
		return "first-match"
	}
	return "low-id-exhaustive"
}

// shapeKey identifies a per-node resource demand; every request with the
// same (cores, GPUs) pair selects the same set of feasible nodes.
type shapeKey struct {
	cores, gpus int
}

// Matcher is R: it walks the machine's resource graph to place requests,
// counting vertex visits — the unit of matcher work that the Fig. 6 chunky
// scheduling and the 670× comparison are measured in.
//
// Engineering (DESIGN.md §11): the visit count is part of the simulation
// model (it drives the modeled match latency), so optimizations must
// reproduce it exactly. The matcher therefore keeps per-shape free-node
// bitmaps — one bit per node, set when the node currently fits that
// (cores, GPUs) demand — maintained incrementally on every reservation,
// release, and drain change. Match finds feasible nodes by word-scanning
// the bitmap instead of sweeping the node array, and charges visits by the
// closed-form cost of the scan the pre-index implementation would have
// performed, so placements, visit counts, and cursor motion are
// bit-identical to the linear sweep at a fraction of the cost.
type Matcher struct {
	m      *cluster.Machine
	policy Policy

	visits int64

	// First-match cursors: the lowest node id at which a job of each class
	// (GPU-requiring vs CPU-only) might find room. A scan only advances its
	// cursor past nodes with zero free resources of the class; releases pull
	// the cursors back. This keeps first-match exact while visiting O(1)
	// nodes in the common packed-prefix case.
	gpuCursor int
	cpuCursor int

	// Free-node index. shapes holds one fit bitmap per demand shape seen so
	// far (campaigns use a handful of job shapes); gpuFree and cpuFree mirror
	// the class-empty test the cursor logic depends on (free counts only —
	// drained nodes with free resources still stop cursor advancement, as
	// they did under the linear sweep).
	words   int
	shapes  map[shapeKey][]uint64
	gpuFree []uint64
	cpuFree []uint64

	// chosen is the node list of the match in progress, reused by every
	// match.
	chosen []int
}

// NewMatcher builds a matcher over the machine.
func NewMatcher(m *cluster.Machine, policy Policy) *Matcher {
	mt := &Matcher{
		m:      m,
		policy: policy,
		words:  (m.NumNodes() + 63) / 64,
		shapes: make(map[shapeKey][]uint64),
	}
	mt.gpuFree = make([]uint64, mt.words)
	mt.cpuFree = make([]uint64, mt.words)
	for i := 0; i < m.NumNodes(); i++ {
		mt.refreshNode(i)
	}
	return mt
}

// Visits returns the cumulative vertex-visit count.
func (mt *Matcher) Visits() int64 { return mt.visits }

// Match attempts to place req, reserving resources on success. It returns
// the allocation, the vertex visits this call performed, and whether the
// placement succeeded.
func (mt *Matcher) Match(req Request) (cluster.Alloc, int64, bool) {
	req = req.normalize()
	before := mt.visits
	var nodes []int
	var ok bool
	if mt.policy == LowIDExhaustive {
		nodes, ok = mt.matchExhaustive(req)
	} else {
		nodes, ok = mt.matchFirst(req)
	}
	if !ok {
		return cluster.Alloc{}, mt.visits - before, false
	}
	alloc := cluster.Alloc{Parts: make([]cluster.AllocPart, 0, len(nodes))}
	for _, n := range nodes {
		part, err := mt.m.Reserve(n, req.Cores, req.GPUs)
		if err != nil {
			// Roll back earlier parts; this only happens on internal
			// inconsistency and must not leak resources.
			mt.m.Release(alloc)
			for _, p := range alloc.Parts {
				mt.refreshNode(p.Node)
			}
			return cluster.Alloc{}, mt.visits - before, false
		}
		alloc.Parts = append(alloc.Parts, part)
		mt.refreshNode(n)
	}
	return alloc, mt.visits - before, true
}

// matchExhaustive models visiting every vertex of the graph (each node's
// full subtree), collects all feasible nodes, and picks the lowest IDs. The
// full-graph visit charge is the entire point of the experiment; only the
// feasibility scan itself is served from the bitmap. The returned nodes are
// the matcher's scratch, valid until the next match.
func (mt *Matcher) matchExhaustive(req Request) ([]int, bool) {
	n := mt.m.NumNodes()
	mt.visits += int64(mt.m.Topology().VerticesPerNode()) * int64(n)
	fit := mt.shapeBits(req.Cores, req.GPUs)
	chosen := mt.chosen[:0]
	for i := nextSet(fit, 0, n); i < n && len(chosen) < req.NodeCount; i = nextSet(fit, i+1, n) {
		chosen = append(chosen, i)
	}
	mt.chosen = chosen
	if len(chosen) < req.NodeCount {
		return nil, false
	}
	return chosen, true
}

// matchFirst takes the first feasible node set at or after the class cursor.
// The linear sweep charged one visit per aggregate node check plus the
// chosen nodes' subtrees; the bitmap scan reproduces that charge in closed
// form: on success the sweep would have stopped at the last chosen node, on
// failure it would have walked to the end of the machine. The cursor
// advances to the first node with free resources of the class, exactly where
// the sweep's contiguous class-empty-prefix rule left it: a feasible node
// has class-free resources, so no placement can precede that point. Like
// matchExhaustive, it returns the matcher's scratch.
func (mt *Matcher) matchFirst(req Request) ([]int, bool) {
	perNode := int64(mt.m.Topology().VerticesPerNode())
	n := mt.m.NumNodes()
	cursor, class := &mt.cpuCursor, mt.cpuFree
	if req.GPUs > 0 {
		cursor, class = &mt.gpuCursor, mt.gpuFree
	}
	fit := mt.shapeBits(req.Cores, req.GPUs)
	chosen := mt.chosen[:0]
	for i := *cursor; len(chosen) < req.NodeCount; i++ {
		i = nextSet(fit, i, n)
		if i >= n {
			break
		}
		chosen = append(chosen, i)
	}
	mt.chosen = chosen
	advanced := nextSet(class, *cursor, n)
	if req.NodeCount > 0 && len(chosen) == req.NodeCount {
		last := chosen[len(chosen)-1]
		mt.visits += int64(last-*cursor+1) + int64(len(chosen))*(perNode-1)
		*cursor = advanced
		return chosen, true
	}
	mt.visits += int64(n-*cursor) + int64(len(chosen))*(perNode-1)
	*cursor = advanced
	return nil, false
}

// NoteRelease informs the matcher that resources were freed on a node, so
// first-match cursors can consider it again and the free-node index reflects
// the new capacity. Callers release on the machine first.
func (mt *Matcher) NoteRelease(a cluster.Alloc) {
	for _, p := range a.Parts {
		if p.Node < mt.gpuCursor {
			mt.gpuCursor = p.Node
		}
		if p.Node < mt.cpuCursor {
			mt.cpuCursor = p.Node
		}
		mt.refreshNode(p.Node)
	}
}

// NoteDrainChange resets cursors after drain/undrain events and rebuilds the
// free-node index (drain changes carry no node id, and they are rare).
func (mt *Matcher) NoteDrainChange() {
	mt.gpuCursor, mt.cpuCursor = 0, 0
	for i := 0; i < mt.m.NumNodes(); i++ {
		mt.refreshNode(i)
	}
}

// ---------------------------------------------------------------------------
// Free-node bitmaps

// shapeBits returns the fit bitmap for a demand shape, building it on first
// use. Later mutations keep it current via refreshNode.
func (mt *Matcher) shapeBits(cores, gpus int) []uint64 {
	k := shapeKey{cores, gpus}
	b, ok := mt.shapes[k]
	if !ok {
		b = make([]uint64, mt.words)
		for i := 0; i < mt.m.NumNodes(); i++ {
			setBit(b, i, mt.m.NodeFits(i, cores, gpus))
		}
		mt.shapes[k] = b
	}
	return b
}

// refreshNode re-derives every index bit for one node from the machine's
// current state. Bit updates commute, so refresh order never matters.
func (mt *Matcher) refreshNode(i int) {
	nd := mt.m.Node(i)
	setBit(mt.gpuFree, i, nd.FreeGPUs() > 0)
	setBit(mt.cpuFree, i, nd.FreeCores() > 0)
	for k, b := range mt.shapes {
		setBit(b, i, mt.m.NodeFits(i, k.cores, k.gpus))
	}
}

// setBit sets or clears bit i.
func setBit(b []uint64, i int, on bool) {
	if on {
		b[i>>6] |= 1 << (uint(i) & 63)
	} else {
		b[i>>6] &^= 1 << (uint(i) & 63)
	}
}

// nextSet returns the first set bit index at or after from, or limit if
// there is none below limit.
func nextSet(b []uint64, from, limit int) int {
	if from >= limit {
		return limit
	}
	w := from >> 6
	cur := b[w] >> (uint(from) & 63) << (uint(from) & 63)
	for {
		if cur != 0 {
			i := w<<6 + bits.TrailingZeros64(cur)
			if i >= limit {
				return limit
			}
			return i
		}
		w++
		if w<<6 >= limit {
			return limit
		}
		cur = b[w]
	}
}
