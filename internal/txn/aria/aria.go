// Package aria implements the deterministic transaction protocol that
// StateFlow layers over the dataflow (§3): an extension of Aria (Lu et
// al., VLDB 2020). Root invocations are grouped into batches (epochs);
// every transaction in a batch executes optimistically against the state
// as of the batch start, buffering writes in a per-transaction workspace
// and recording read/write reservations. When the whole batch has
// finished executing, each worker validates its local reservations and
// the coordinator unions the votes into a deterministic global decision.
// Committed workspaces apply in TID order; aborted transactions are
// re-queued into the next batch.
//
// Reservations are recorded at (class-id, key, slot-bitmap) granularity:
// the reservation key interns the entity class as the compiler's dense
// class id, and the bitmap marks which attribute slots of the entity the
// transaction touched (plus a whole-entity bit for existence checks,
// creations, overflow slots and dynamically-added attributes). Two
// transactions that touch disjoint attributes of the same entity no
// longer conflict; committed writes apply slot-by-slot so disjoint
// updates merge instead of clobbering each other.
package aria

import (
	"fmt"
	"sort"

	"statefulentities.dev/stateflow/internal/core"
	"statefulentities.dev/stateflow/internal/interp"
	"statefulentities.dev/stateflow/internal/state"
)

// TID is a transaction identifier; batch order is TID order, which makes
// the commit decision deterministic (§3, "deterministic transaction
// protocol").
type TID int64

// ResKey identifies an entity inside a reservation set: the dense class
// id (interned per state store from the program's layouts) plus the
// partition key.
type ResKey struct {
	Class int32
	Key   string
}

// Bits is an attribute-slot bitmap. Bit i covers layout slot i for
// i < 63; EntityBit covers entity existence, creation, overflow slots
// (≥ 63) and attributes outside the class layout.
type Bits uint64

// EntityBit is the whole-entity reservation bit.
const EntityBit Bits = 1 << 63

// AllBits reserves the entire entity (creation, whole-row install).
const AllBits Bits = ^Bits(0)

// SlotBit maps a 0-based layout slot to its reservation bit.
func SlotBit(slot int) Bits {
	if slot < 0 || slot >= 63 {
		return EntityBit
	}
	return 1 << uint(slot)
}

// RWSet is a transaction's reservation set on one worker.
type RWSet struct {
	Reads  map[ResKey]Bits
	Writes map[ResKey]Bits
}

// NewRWSet returns an empty reservation set.
func NewRWSet() *RWSet {
	return &RWSet{Reads: map[ResKey]Bits{}, Writes: map[ResKey]Bits{}}
}

// Read records a read reservation.
func (rw *RWSet) Read(k ResKey, b Bits) { rw.Reads[k] |= b }

// Write records a write reservation.
func (rw *RWSet) Write(k ResKey, b Bits) { rw.Writes[k] |= b }

// Merge unions another set into this one.
func (rw *RWSet) Merge(o *RWSet) {
	for k, b := range o.Reads {
		rw.Reads[k] |= b
	}
	for k, b := range o.Writes {
		rw.Writes[k] |= b
	}
}

// wsEntry is the buffered working copy of one entity inside a workspace.
type wsEntry struct {
	row *interp.Row // private copy of the committed image, made on first write or container read
	// wroteBits marks written slots; EntityBit set means the whole row
	// must be installed on apply (created, overflow or extra attributes).
	// Zero means the copy was only read from (wsState.committedContainer).
	wroteBits  Bits
	wroteExtra map[string]bool // written attributes outside the layout
	created    bool
}

// Workspace is the per-transaction optimistic execution context on one
// worker: reads hit the committed store (plus the transaction's own
// writes), writes buffer locally in row working copies, and reservations
// accumulate for validation.
type Workspace struct {
	TID       TID
	committed *state.Store
	writes    map[interp.EntityRef]*wsEntry
	RW        *RWSet
	classIDs  map[string]int32 // ResKey intern cache over the store's layouts
}

// NewWorkspace opens a workspace for tid over the committed store.
func NewWorkspace(tid TID, committed *state.Store) *Workspace {
	return &Workspace{
		TID:       tid,
		committed: committed,
		writes:    map[interp.EntityRef]*wsEntry{},
		RW:        NewRWSet(),
		classIDs:  map[string]int32{},
	}
}

// resKey interns the entity reference as a reservation key.
func (ws *Workspace) resKey(ref interp.EntityRef) ResKey {
	id, ok := ws.classIDs[ref.Class]
	if !ok {
		id = int32(ws.committed.ClassID(ref.Class))
		ws.classIDs[ref.Class] = id
	}
	return ResKey{Class: id, Key: ref.Key}
}

// entry returns the workspace's private working row for ref, cloning the
// committed image on first touch.
func (ws *Workspace) entry(ref interp.EntityRef) *wsEntry {
	e, ok := ws.writes[ref]
	if !ok {
		var row *interp.Row
		if base, exists := ws.committed.Lookup(ref); exists {
			row = base.Clone()
		} else {
			row = ws.committed.NewRow(ref.Class)
		}
		e = &wsEntry{row: row}
		ws.writes[ref] = e
	}
	return e
}

// wsState is the interp.State view of one entity inside a workspace. It
// implements the slot fast path so slot-stamped attribute access records
// slot-granular reservations without name hashing.
type wsState struct {
	ws  *Workspace
	ref interp.EntityRef
	key ResKey
	// row is the committed image (nil if the entity does not exist); the
	// workspace's own working copy, when present, shadows it.
	row *interp.Row
}

func (s wsState) readRow() *interp.Row {
	if e, ok := s.ws.writes[s.ref]; ok {
		return e.row
	}
	return s.row
}

// committedContainer reports whether v, just read through readRow, is a
// list or dict the committed image still owns. The interpreter mutates
// containers in place and only afterwards re-stores them
// (touchStateAttr), so handing one out would let an aborted or void
// attempt leave its mutation behind in committed state; the caller reads
// it from the workspace's own copy of the row (entry) instead.
func (s wsState) committedContainer(v interp.Value) bool {
	if v.Kind != interp.KList && v.Kind != interp.KDict {
		return false
	}
	_, own := s.ws.writes[s.ref]
	return !own
}

// Get implements interp.State: own writes first, then the committed
// image.
func (s wsState) Get(attr string) (interp.Value, bool) {
	r := s.readRow()
	if r == nil {
		s.ws.RW.Read(s.key, EntityBit)
		return interp.None, false
	}
	if slot, ok := r.Layout().SlotOf(attr); ok {
		s.ws.RW.Read(s.key, SlotBit(slot))
	} else {
		s.ws.RW.Read(s.key, EntityBit)
	}
	v, ok := r.Get(attr)
	if ok && s.committedContainer(v) {
		return s.ws.entry(s.ref).row.Get(attr)
	}
	return v, ok
}

// Set implements interp.State: copy-on-first-write into the workspace.
func (s wsState) Set(attr string, v interp.Value) {
	e := s.ws.entry(s.ref)
	if slot, ok := e.row.Layout().SlotOf(attr); ok && slot < 63 {
		b := SlotBit(slot)
		s.ws.RW.Write(s.key, b)
		e.wroteBits |= b
	} else {
		// Off-layout or overflow attribute: Apply installs the whole
		// working row, so the reservation must cover every slot —
		// otherwise a lower-TID slot write would pass validation and
		// then be reverted by the row install.
		s.ws.RW.Write(s.key, AllBits)
		e.wroteBits |= EntityBit
		if !ok {
			if e.wroteExtra == nil {
				e.wroteExtra = map[string]bool{}
			}
			e.wroteExtra[attr] = true
		}
	}
	e.row.Set(attr, v)
}

// GetSlot implements interp.SlotState.
func (s wsState) GetSlot(slot int) (interp.Value, bool) {
	s.ws.RW.Read(s.key, SlotBit(slot))
	r := s.readRow()
	if r == nil {
		return interp.None, false
	}
	v, ok := r.GetSlot(slot)
	if ok && s.committedContainer(v) {
		return s.ws.entry(s.ref).row.GetSlot(slot)
	}
	return v, ok
}

// SetSlot implements interp.SlotState.
func (s wsState) SetSlot(slot int, v interp.Value) {
	e := s.ws.entry(s.ref)
	if slot < 63 {
		b := SlotBit(slot)
		s.ws.RW.Write(s.key, b)
		e.wroteBits |= b
	} else {
		// Overflow slot: whole-row install on apply (see Set).
		s.ws.RW.Write(s.key, AllBits)
		e.wroteBits |= EntityBit
	}
	e.row.SetSlot(slot, v)
}

// Lookup implements core.Store for the executor. Absence is an
// observation too: a lookup that misses still reserves the key, so a
// transaction that failed because an entity did not exist conflicts with
// a same-batch creation of it — without the phantom read its error would
// validate as definitive even though the serial order creates the entity
// first.
func (ws *Workspace) Lookup(ref interp.EntityRef) (interp.State, bool) {
	key := ws.resKey(ref)
	ws.RW.Read(key, EntityBit)
	if e, ok := ws.writes[ref]; ok {
		return wsState{ws: ws, ref: ref, key: key, row: e.row}, true
	}
	if base, exists := ws.committed.Lookup(ref); exists {
		return wsState{ws: ws, ref: ref, key: key, row: base}, true
	}
	return nil, false
}

// Create implements core.Store: new entities are buffered like writes.
func (ws *Workspace) Create(ref interp.EntityRef) (interp.State, error) {
	if ws.committed.Exists(ref) {
		return nil, fmt.Errorf("entity %s already exists", ref)
	}
	if e, ok := ws.writes[ref]; ok && e.created {
		return nil, fmt.Errorf("entity %s already exists", ref)
	}
	key := ws.resKey(ref)
	ws.RW.Write(key, AllBits)
	e := &wsEntry{row: ws.committed.NewRow(ref.Class), wroteBits: AllBits, created: true}
	ws.writes[ref] = e
	return wsState{ws: ws, ref: ref, key: key}, nil
}

// PutBlind installs a complete entity image as a blind write: the whole
// working row is replaced by row and Apply installs it wholesale, so the
// reservation covers every slot. Sharded runtimes use this to replay a
// globally-sequenced transaction's write-set into one shard without
// re-executing the method there.
func (ws *Workspace) PutBlind(ref interp.EntityRef, row *interp.Row) {
	ws.RW.Write(ws.resKey(ref), AllBits)
	e, ok := ws.writes[ref]
	if !ok {
		e = &wsEntry{}
		ws.writes[ref] = e
	}
	e.row = row
	e.wroteBits |= EntityBit
}

// Written calls fn for every entity the transaction buffered a write for,
// with its working row. The global sequencer derives a batch's write-sets
// from it.
func (ws *Workspace) Written(fn func(ref interp.EntityRef, row *interp.Row)) {
	for ref, e := range ws.writes {
		if e.wroteBits != 0 {
			fn(ref, e.row)
		}
	}
}

// Apply installs the workspace's buffered writes into the committed
// store. Whole-entity writes (creations, extra attributes) install the
// working row; plain attribute writes merge slot-by-slot so lower-TID
// writes to disjoint slots survive. Callers must apply committed
// workspaces in TID order.
func (ws *Workspace) Apply(dst *state.Store) {
	refs := make([]interp.EntityRef, 0, len(ws.writes))
	for ref := range ws.writes {
		refs = append(refs, ref)
	}
	sortRefs(refs)
	for _, ref := range refs {
		e := ws.writes[ref]
		if e.wroteBits == 0 {
			continue // read-only private copy
		}
		base, exists := dst.Lookup(ref)
		if !exists || e.created || e.wroteBits&EntityBit != 0 {
			dst.Put(ref, e.row)
			continue
		}
		for slot := 0; slot < 63; slot++ {
			if e.wroteBits&(1<<uint(slot)) == 0 {
				continue
			}
			if v, ok := e.row.GetSlot(slot); ok {
				base.SetSlot(slot, v)
			}
		}
	}
}

// WriteBytes estimates the serialized size of the buffered writes (used
// by the worker cost model when applying a commit).
func (ws *Workspace) WriteBytes() int {
	total := 0
	for _, e := range ws.writes {
		if e.wroteBits != 0 {
			total += e.row.EncodedSize()
		}
	}
	return total
}

// TouchedEntities lists every entity in the reservation set, resolving
// class ids back through the committed store's layouts.
func (ws *Workspace) TouchedEntities() []interp.EntityRef {
	classes := map[int32]string{}
	for class, id := range ws.classIDs {
		classes[id] = class
	}
	seen := map[interp.EntityRef]bool{}
	add := func(k ResKey) {
		seen[interp.EntityRef{Class: classes[k.Class], Key: k.Key}] = true
	}
	for k := range ws.RW.Reads {
		add(k)
	}
	for k := range ws.RW.Writes {
		add(k)
	}
	out := make([]interp.EntityRef, 0, len(seen))
	for ref := range seen {
		out = append(out, ref)
	}
	sortRefs(out)
	return out
}

func sortRefs(refs []interp.EntityRef) {
	sort.Slice(refs, func(i, j int) bool {
		if refs[i].Class != refs[j].Class {
			return refs[i].Class < refs[j].Class
		}
		return refs[i].Key < refs[j].Key
	})
}

// Validate runs Aria's deterministic conflict check over one worker's
// local reservations. order is the batch's TID order; sets holds the
// local reservation set of each transaction that touched this worker. A
// transaction aborts if any slot it read or wrote was written by a
// lower-TID transaction in the batch — the WAW and RAW rules of Aria
// (reads observe the batch-start snapshot, so WAR never aborts). The
// check deliberately counts reservations of transactions that themselves
// abort (Aria's conservative one-pass rule), keeping validation
// embarrassingly parallel across workers.
func Validate(order []TID, sets map[TID]*RWSet) []TID {
	earlier := map[ResKey]Bits{}
	var aborts []TID
	for _, tid := range order {
		rw, ok := sets[tid]
		if !ok {
			continue
		}
		conflicted := false
		for k, b := range rw.Writes {
			if earlier[k]&b != 0 {
				conflicted = true
				break
			}
		}
		if !conflicted {
			for k, b := range rw.Reads {
				if earlier[k]&b != 0 {
					conflicted = true
					break
				}
			}
		}
		if conflicted {
			aborts = append(aborts, tid)
		}
		for k, b := range rw.Writes {
			earlier[k] |= b
		}
	}
	return aborts
}

// overlaps reports whether any reservation bit of a intersects b.
func overlaps(a, b map[ResKey]Bits) bool {
	if len(b) < len(a) {
		a, b = b, a
	}
	for k, bits := range a {
		if b[k]&bits != 0 {
			return true
		}
	}
	return false
}

// Conflicts reports whether two reservation sets touch overlapping
// reservation bits in a way that orders them (WAW, RAW or WAR): if so,
// the two transactions must commit in their relative serial order —
// read/read overlap alone never conflicts.
func Conflicts(a, b *RWSet) bool {
	return overlaps(a.Writes, b.Writes) ||
		overlaps(a.Writes, b.Reads) ||
		overlaps(b.Writes, a.Reads)
}

// Schedule is the fallback phase's deterministic plan for a batch's
// conflict-aborted transactions: which of them commit via deterministic
// re-execution and in what order.
type Schedule struct {
	// Commit lists every fallback-scheduled transaction in its
	// deterministic apply order (the concatenation of Rounds).
	Commit []TID
	// Rounds partitions Commit into re-execution rounds. Members of one
	// round have pairwise-disjoint reservation footprints, so they may
	// re-execute concurrently; a transaction lands in the round after the
	// last lower-TID aborted transaction it conflicts with, which
	// preserves the batch's TID serial order along every conflict chain.
	Rounds [][]TID
}

// Fallback computes Aria's deterministic fallback schedule: the second
// validation pass that rescues conflict-aborted transactions instead of
// kicking them into the next batch. It rebuilds the batch's dependency
// graph from the gathered reservation sets and layers the aborted
// transactions into re-execution rounds: a transaction whose conflicts
// are all with earlier rounds (or with standard-committed transactions,
// which apply before any fallback round) is reorderable — it re-executes
// against the then-current committed state and commits in its round.
// Every conflict edge (RAW, WAW, WAR) between two aborted transactions
// orders the higher TID after the lower, so the resulting serial order
// is exactly the one the legacy retry path would have produced across
// one batch per round — a pure conflict chain drains in one batch
// instead of one commit per batch.
//
// The schedule is a pure function of (order, sets): every node computing
// it from the same global reservation sets reaches the same plan.
func Fallback(order []TID, sets map[TID]*RWSet) Schedule {
	aborted := Validate(order, sets)
	var sched Schedule
	round := make(map[TID]int, len(aborted))
	for i, tid := range aborted {
		rw := sets[tid]
		r := 0
		for _, lower := range aborted[:i] {
			if round[lower] >= r && Conflicts(sets[lower], rw) {
				r = round[lower] + 1
			}
		}
		round[tid] = r
		for len(sched.Rounds) <= r {
			sched.Rounds = append(sched.Rounds, nil)
		}
		sched.Rounds[r] = append(sched.Rounds[r], tid)
	}
	for _, members := range sched.Rounds {
		sched.Commit = append(sched.Commit, members...)
	}
	return sched
}

// Interface checks.
var (
	_ core.Store       = (*Workspace)(nil)
	_ interp.SlotState = wsState{}
)
