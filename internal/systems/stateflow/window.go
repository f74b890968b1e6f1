// Where the journal keeps its records: one dense arena for the records,
// and one sequence window per request source to find them.
//
// A Builder-minted request id is "<source>.<seq>" (sysapi.Builder.At), and
// a source numbers its requests densely, so the journal indexes a record by
// (source, seq) the way an idempotent producer is deduplicated by
// (producer, sequence) and TCP tracks a connection's receive window:
// a window is a table of arena positions indexed by sequence, held in
// fixed chunks whose base moves forward as its front chunks empty. The
// records themselves sit in journal-wide arena chunks in first-touch order,
// not in the windows: a source also numbers requests that never reach the
// journal (fast reads), and a slot per sequence would leave a record-sized
// hole for each of them.
package stateflow

import (
	"strings"

	"statefulentities.dev/stateflow/internal/systems/sysapi"
)

const (
	// recChunkLen records make an arena chunk: 64 × 120 bytes plus the live
	// count fills the 8 KB size class (TestJournalArenaChunkFillsItsSizeClass).
	recChunkLen = 64
	// seqChunkLen positions make a window chunk: 2 KB, a size class of its
	// own.
	seqChunkLen = 512
	// maxWindowChunks bounds a window's span. An id whose sequence lies
	// further from the rest of its source than that is kept by name instead
	// (journal.requests), so no id can make a window allocate its gap.
	maxWindowChunks = 1 << 16
)

// recChunk is one fixed block of the record arena.
type recChunk struct {
	recs [recChunkLen]deliveredEntry
	live int // records allocated and not yet freed
}

// recArena holds every record of one journal. A record is named by its
// position, a counter handed out in first-touch order; position 0 is never
// handed out and means "no record". chunks[i] holds the positions from
// base+i*recChunkLen on. Positions are uint32 and wrap: every offset is
// taken modulo 2^32, a multiple of the chunk length, so lookups stay exact
// across the wrap as long as the live positions span less than 2^32.
type recArena struct {
	chunks []*recChunk // nil: a chunk whose records were all freed
	base   uint32
	next   uint32
}

// at returns the record at a position the arena handed out.
func (a *recArena) at(p uint32) *deliveredEntry {
	off := p - a.base
	return &a.chunks[off/recChunkLen].recs[off%recChunkLen]
}

// alloc hands out the next position; its record is zero.
func (a *recArena) alloc() uint32 {
	if a.next == 0 {
		a.next = 1 // 0 means "no record"
	}
	p := a.next
	a.next++
	if len(a.chunks) == 0 {
		a.base = p - p%recChunkLen
	}
	i := int((p - a.base) / recChunkLen)
	if i >= len(a.chunks) {
		a.chunks = append(a.chunks, make([]*recChunk, i+1-len(a.chunks))...)
	}
	c := a.chunks[i]
	if c == nil {
		c = new(recChunk)
		a.chunks[i] = c
	}
	c.live++
	return p
}

// free zeroes a record, so it pins no response, and drops its chunk once
// no record in it is live.
func (a *recArena) free(p uint32) {
	off := p - a.base
	i := int(off / recChunkLen)
	c := a.chunks[i]
	c.recs[off%recChunkLen] = deliveredEntry{}
	if c.live--; c.live > 0 {
		return
	}
	a.chunks[i] = nil
	a.chunks, a.base = trimChunks(a.chunks, a.base, recChunkLen)
}

// trimChunks drops the nil chunks at both ends of a chunk table whose first
// chunk starts at base, and returns the table and its new base. The table
// keeps its storage.
func trimChunks[C any, B uint32 | int64](chunks []*C, base B, per B) ([]*C, B) {
	for len(chunks) > 0 && chunks[len(chunks)-1] == nil {
		chunks = chunks[:len(chunks)-1]
	}
	front := 0
	for front < len(chunks) && chunks[front] == nil {
		front++
	}
	if front == 0 {
		return chunks, base
	}
	n := copy(chunks, chunks[front:])
	clear(chunks[n:])
	return chunks[:n], base + B(front)*per
}

// window indexes one source's records by sequence: index[i][k] is the arena
// position of sequence base+i*seqChunkLen+k, 0 for none. base is a multiple
// of seqChunkLen, so a chunk covers the same sequences whatever arrived
// first.
type window struct {
	src   string
	base  int64
	index []*[seqChunkLen]uint32 // nil: a chunk with no record
}

// get returns the arena position of seq's record, 0 for none.
func (w *window) get(seq int64) uint32 {
	off := seq - w.base
	if off < 0 || off >= int64(len(w.index))*seqChunkLen {
		return 0
	}
	if c := w.index[off/seqChunkLen]; c != nil {
		return c[off%seqChunkLen]
	}
	return 0
}

// put indexes position p at seq, growing the window down or up to reach
// it. It reports false, and indexes nothing, when the window would span
// more than maxWindowChunks.
func (w *window) put(seq int64, p uint32) bool {
	if len(w.index) == 0 {
		w.base = seq - seq%seqChunkLen
	}
	if seq < w.base {
		// Below the base: a source's first arrivals jitter, and a chunk
		// dropped at the front may still owe sequences that never arrived.
		grow := (w.base - seq + seqChunkLen - 1) / seqChunkLen
		if grow+int64(len(w.index)) > maxWindowChunks {
			return false
		}
		w.index = append(make([]*[seqChunkLen]uint32, grow, grow+int64(cap(w.index))), w.index...)
		w.base -= grow * seqChunkLen
	}
	i := (seq - w.base) / seqChunkLen
	if i >= maxWindowChunks {
		return false
	}
	if n := int(i) + 1 - len(w.index); n > 0 {
		w.index = append(w.index, make([]*[seqChunkLen]uint32, n)...)
	}
	c := w.index[i]
	if c == nil {
		c = new([seqChunkLen]uint32)
		w.index[i] = c
	}
	c[(seq-w.base)%seqChunkLen] = p
	return true
}

// sweep visits every record the window indexes, in sequence order, and
// unindexes those the visit returns true for; it drops the chunks left
// empty and reports whether the window is.
func (w *window) sweep(visit func(seq int64, p uint32) (drop bool)) (empty bool) {
	for i, c := range w.index {
		if c == nil {
			continue
		}
		live := 0
		for k, p := range c {
			if p == 0 {
				continue
			}
			if visit(w.base+int64(i)*seqChunkLen+int64(k), p) {
				c[k] = 0
			} else {
				live++
			}
		}
		if live == 0 {
			w.index[i] = nil
		}
	}
	w.index, w.base = trimChunks(w.index, w.base, seqChunkLen)
	return len(w.index) == 0
}

// window returns src's window, nil when it has none; the last one found
// is cached, so a journal fed by one source hashes nothing.
func (j *journal) window(src string) *window {
	if w := j.last; w != nil && w.src == src {
		return w
	}
	w := j.windows[src]
	if w != nil {
		j.last = w
	}
	return w
}

// find returns id's record, nil when the journal holds none.
func (j *journal) find(id string) *deliveredEntry {
	if src, seq, ok := sysapi.SplitID(id); ok {
		if w := j.window(src); w != nil {
			if p := w.get(seq); p != 0 {
				return j.recs.at(p)
			}
		}
		if j.strays == 0 {
			return nil
		}
	}
	if p := j.requests[id]; p != 0 {
		return j.recs.at(p)
	}
	return nil
}

// add returns id's record, adding one that is neither logged nor answered
// when the journal holds none.
func (j *journal) add(id string) *deliveredEntry {
	if ent := j.find(id); ent != nil {
		return ent
	}
	p := j.recs.alloc()
	ent := j.recs.at(p)
	ent.answer = answerNone
	if src, seq, ok := sysapi.SplitID(id); ok {
		w := j.window(src)
		if w == nil {
			w = &window{src: strings.Clone(src)}
			j.windows[w.src], j.last = w, w
		}
		if w.put(seq, p) {
			return ent
		}
		j.strays++ // too far from the rest of its source to index
	}
	j.requests[id] = p
	return ent
}

// sweep visits every record, the windows' first, and frees those the
// visit returns true for. src and seq name a record's source and sequence;
// ok is false for an id SplitID does not read.
func (j *journal) sweep(visit func(src string, seq int64, ok bool, ent *deliveredEntry) (drop bool)) {
	for src, w := range j.windows {
		empty := w.sweep(func(seq int64, p uint32) bool {
			if !visit(src, seq, true, j.recs.at(p)) {
				return false
			}
			j.recs.free(p)
			return true
		})
		if empty {
			delete(j.windows, src)
			if j.last == w {
				j.last = nil
			}
		}
	}
	for id, p := range j.requests {
		src, seq, ok := sysapi.SplitID(id)
		if !visit(src, seq, ok, j.recs.at(p)) {
			continue
		}
		j.recs.free(p)
		delete(j.requests, id)
		if ok {
			j.strays--
		}
	}
}

// clear empties the journal's records and floors.
func (j *journal) clear() {
	j.recs = recArena{}
	j.windows, j.last = map[string]*window{}, nil
	j.requests, j.strays = map[string]uint32{}, 0
	j.dedupFloor = map[string]int64{}
}
