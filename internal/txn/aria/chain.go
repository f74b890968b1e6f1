package aria

import (
	"slices"

	"statefulentities.dev/stateflow/internal/interp"
)

// ChainPlan is the fallback schedule for a batch's conflict aborts, each with
// a footprint known — as a set of entities — before the re-execution runs.
// Instead of layering the aborts into barrier rounds (Fallback), every member
// is queued — in TID order — on each entity of its footprint, and a member's
// event on an entity may run once the member heads that entity's queue
// (Calvin's ordered locks, per entity). Every queue is in TID order, so a
// member only ever waits for lower TIDs: the wait-for graph cannot cycle, and
// each entity's conflicts commit in TID order. Footprints are whole entities.
// One that is a superset of anything the member can touch leaves nothing for
// a later validation to catch; one that is only what a first execution
// touched holds as long as the re-execution stays inside it, which whoever
// runs the events checks with Entity.
//
// A plan is immutable while its epoch is live: the coordinator ships one
// pointer to every worker, and each party tracks its own progress through it
// in a Chain. Its storage belongs to whoever planned it — the epoch's
// coordinator slot, which replans a later epoch's chain into it (PlanChain)
// once no party can read the old plan any more. The planning scratch stays
// with it, so a warm replan allocates nothing. Members are named by their
// position in Members, entities by their position in Refs.
type ChainPlan struct {
	// Members are the chain's transactions, in TID order.
	Members []TID
	// Refs are the entities the footprints name, in first-mention order.
	Refs []interp.EntityRef
	// Depth is the longest per-entity dependency path through the chain, in
	// members: what a barrier schedule would have run as that many rounds.
	Depth int

	depth []int32 // per member: 1 + the deepest predecessor on any of its entities
	// Footprints and queues, flattened: member m's entities are
	// foot[footAt[m]:footAt[m+1]], entity e's queue (ascending members) is
	// queue[queueAt[e]:queueAt[e+1]].
	foot, footAt   []int32
	queue, queueAt []int32

	// The planning scratch: per entity, the depth of the last candidate
	// queued on it, then the queues' fill cursors; the buffer a footprint is
	// appended to; and the index over Refs once they outgrow a scan.
	last  []int32
	buf   []interp.EntityRef
	index map[interp.EntityRef]int32
}

// PlanChain queues the candidates — a batch's conflict aborts, in TID order
// — into a chain, planned into p's storage over whatever p held. p keeps tids
// as its Members, so a caller that appends them to p.Members[:0] reuses that
// storage too. footprint appends candidate i's entities to buf (repeats are
// fine).
func PlanChain(p *ChainPlan, tids []TID, footprint func(i int, buf []interp.EntityRef) []interp.EntityRef) {
	n := len(tids)
	p.Members, p.Depth = tids, 0
	p.Refs = slices.Grow(p.Refs[:0], 2*n)
	p.depth = slices.Grow(p.depth[:0], n)
	p.foot = slices.Grow(p.foot[:0], 2*n)
	p.footAt = append(slices.Grow(p.footAt[:0], n+1), 0)
	p.last = slices.Grow(p.last[:0], 2*n)
	clear(p.index)
	indexed := false // p.index covers Refs: they outgrew scanLimit
	intern := func(ref interp.EntityRef) int32 {
		if indexed {
			if e, ok := p.index[ref]; ok {
				return e
			}
		} else if e := slices.Index(p.Refs, ref); e >= 0 {
			return int32(e)
		}
		e := int32(len(p.Refs))
		p.Refs = append(p.Refs, ref)
		switch {
		case indexed:
			p.index[ref] = e
		case len(p.Refs) > scanLimit:
			if p.index == nil {
				p.index = make(map[interp.EntityRef]int32, 2*n)
			}
			for i, r := range p.Refs {
				p.index[r] = int32(i)
			}
			indexed = true
		}
		return e
	}
	for i := range tids {
		p.buf = footprint(i, p.buf[:0])
		start := len(p.foot)
		d := int32(0)
		for _, ref := range p.buf {
			e := intern(ref)
			if int(e) == len(p.last) {
				p.last = append(p.last, 0)
			}
			if !slices.Contains(p.foot[start:], e) {
				p.foot = append(p.foot, e)
				d = max(d, p.last[e])
			}
		}
		d++
		for _, e := range p.foot[start:] {
			p.last[e] = d
		}
		p.depth = append(p.depth, d)
		p.footAt = append(p.footAt, int32(len(p.foot)))
		p.Depth = max(p.Depth, int(d))
	}
	// The queues are the footprints inverted; filling them member by member
	// leaves each in ascending (TID) order.
	p.queueAt = resize(p.queueAt, len(p.Refs)+1)
	for _, e := range p.foot {
		p.queueAt[e+1]++
	}
	for e := range p.Refs {
		p.queueAt[e+1] += p.queueAt[e]
	}
	p.queue = resize(p.queue, len(p.foot))
	fill := p.last // done with the depths: reuse as the per-queue fill cursor
	copy(fill, p.queueAt)
	for m := range p.Members {
		for _, e := range p.Footprint(m) {
			p.queue[fill[e]] = int32(m)
			fill[e]++
		}
	}
}

// resize returns s at length n, zeroed, in s's storage when it fits.
func resize[T any](s []T, n int) []T {
	s = slices.Grow(s[:0], n)[:n]
	clear(s)
	return s
}

// Pos returns the chain position of tid (ok false: not a member).
func (p *ChainPlan) Pos(tid TID) (m int, ok bool) { return slices.BinarySearch(p.Members, tid) }

// Footprint lists the entities member m is queued on.
func (p *ChainPlan) Footprint(m int) []int32 { return p.foot[p.footAt[m]:p.footAt[m+1]] }

// Entity returns which entity of member m's footprint ref is (-1: none — m is
// not queued on ref).
func (p *ChainPlan) Entity(m int, ref interp.EntityRef) int32 {
	for _, e := range p.Footprint(m) {
		if p.Refs[e] == ref {
			return e
		}
	}
	return -1
}

// DepthOf returns member m's depth: 1 for a member with no predecessor.
func (p *ChainPlan) DepthOf(m int) int { return int(p.depth[m]) }

// Chain is one party's progress through a ChainPlan: which members it has
// released and, per entity, how far the queue has drained. The coordinator
// keeps one (releasing a member when its response is staged) and so does
// every worker (releasing a member when its workspace is settled). The zero
// Chain tracks nothing until Reset.
type Chain struct {
	Plan     *ChainPlan
	released []bool  // per member
	head     []int32 // per entity: first queue slot not known to be released
}

// Reset starts c at the beginning of p, nothing released, in the storage c
// kept from the plan it tracked before.
func (c *Chain) Reset(p *ChainPlan) {
	c.Plan = p
	c.released = resize(c.released, len(p.Members))
	c.head = append(c.head[:0], p.queueAt[:len(p.Refs)]...)
}

// Head returns the member at the head of entity e's queue — the only one
// whose events may run there — or -1 once the queue has drained.
func (c *Chain) Head(e int32) int {
	p := c.Plan
	h, end := c.head[e], p.queueAt[e+1]
	for h < end && c.released[p.queue[h]] {
		h++
	}
	c.head[e] = h
	if h == end {
		return -1
	}
	return int(p.queue[h])
}

// Ready reports whether member m heads every queue of its footprint: all
// its predecessors have been released.
func (c *Chain) Ready(m int) bool {
	for _, e := range c.Plan.Footprint(m) {
		if c.Head(e) != m {
			return false
		}
	}
	return true
}

// Release takes member m out of every queue it is in, from wherever it
// stands: a member need not have reached the head of a queue it never ran on
// (a refused transfer never visits its payee). Reports whether this was the
// first release of m; a repeat changes nothing.
func (c *Chain) Release(m int) bool {
	if c.released[m] {
		return false
	}
	c.released[m] = true
	return true
}
