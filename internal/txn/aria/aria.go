// Package aria implements the deterministic transaction protocol that
// StateFlow layers over the dataflow (§3): an extension of Aria (Lu et
// al., VLDB 2020). Root invocations are grouped into batches (epochs);
// every transaction in a batch executes optimistically against the state
// as of the batch start, buffering the slot values it writes in a
// per-transaction workspace and recording read/write reservations. When
// the whole batch has finished executing, the coordinator validates the
// reservations every worker shipped with the batch's finishes into a
// deterministic global decision.
// Committed workspaces apply in TID order; aborted transactions are
// re-queued into the next batch.
//
// Reservations are recorded at (class-id, key, slot-bitmap) granularity:
// the reservation key interns the entity class as the compiler's dense
// class id, and the bitmap marks which attribute slots of the entity the
// transaction touched (plus a whole-entity bit for existence checks,
// creations and slots past the bitmap). Two transactions that touch
// disjoint attributes of the same entity no longer conflict; committed
// writes apply slot-by-slot into the committed row in place, so disjoint
// updates merge instead of clobbering each other.
package aria

import (
	"fmt"

	"statefulentities.dev/stateflow/internal/core"
	"statefulentities.dev/stateflow/internal/interp"
	"statefulentities.dev/stateflow/internal/ir"
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
// i < 63; EntityBit covers entity existence, creation and the slots of
// wide classes that the bitmap has no bit for (≥ 63).
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

// resEntry is one entity's reservation: the slots read and the slots
// written.
type resEntry struct {
	key    ResKey
	reads  Bits
	writes Bits
}

const (
	// inlineEntities is the number of entities a set or workspace holds
	// without a second allocation: a YCSB read or update touches one
	// entity, a transfer two.
	inlineEntities = 2
	// scanLimit is the entry count up to which lookups scan linearly;
	// beyond it a map index is built once and maintained.
	scanLimit = 8
)

// RWSet is a transaction's reservation set on one worker: one entry per
// entity in first-touch order, the first inlineEntities of them stored
// inside the set itself. A set must not be copied once used (entries may
// point into inline).
type RWSet struct {
	entries []resEntry
	inline  [inlineEntities]resEntry
	index   map[ResKey]int32 // position in entries; nil up to scanLimit
}

// NewRWSet returns an empty reservation set.
func NewRWSet() *RWSet { return &RWSet{} }

// lookup returns the position of k's entry, or -1.
func (rw *RWSet) lookup(k ResKey) int {
	if rw.index != nil {
		if i, ok := rw.index[k]; ok {
			return int(i)
		}
		return -1
	}
	for i := range rw.entries {
		if rw.entries[i].key == k {
			return i
		}
	}
	return -1
}

// find returns k's entry, or nil.
func (rw *RWSet) find(k ResKey) *resEntry {
	if i := rw.lookup(k); i >= 0 {
		return &rw.entries[i]
	}
	return nil
}

// slot returns the position of k's entry, adding an empty one on first
// touch. Positions are stable: entries are only ever appended.
func (rw *RWSet) slot(k ResKey) int {
	if i := rw.lookup(k); i >= 0 {
		return i
	}
	if rw.entries == nil {
		rw.entries = rw.inline[:0]
	}
	i := len(rw.entries)
	rw.entries = append(rw.entries, resEntry{key: k})
	switch {
	case rw.index != nil:
		rw.index[k] = int32(i)
	case i >= scanLimit:
		rw.index = make(map[ResKey]int32, 2*len(rw.entries))
		for j := range rw.entries {
			rw.index[rw.entries[j].key] = int32(j)
		}
	}
	return i
}

// Read records a read reservation.
func (rw *RWSet) Read(k ResKey, b Bits) { rw.entries[rw.slot(k)].reads |= b }

// Write records a write reservation.
func (rw *RWSet) Write(k ResKey, b Bits) { rw.entries[rw.slot(k)].writes |= b }

// Keys appends the entities the set reserves anything on to buf, in
// first-touch order.
func (rw *RWSet) Keys(buf []ResKey) []ResKey {
	for i := range rw.entries {
		buf = append(buf, rw.entries[i].key)
	}
	return buf
}

// wsEntry is one entity inside a workspace — its interp.State view, its
// committed image and the slot values the transaction buffered over it.
// Every access names a layout slot, so reservations are slot-granular.
type wsEntry struct {
	ws  *Workspace
	ref interp.EntityRef
	res int // position of the entity's reservation in ws.RW.entries
	// base is the committed image as of the latest Lookup (nil if the
	// entity does not exist there: the transaction created it).
	base *interp.Row
	// vals buffers the slots the transaction wrote, plus private copies of
	// the committed lists and dicts it read (committedContainer), one entry
	// per slot, in first-touch order; they shadow base. The first lives in
	// first, so an entry must not be copied once used.
	vals  []interp.SlotValue
	first [1]interp.SlotValue
	// wroteBits marks written slots; EntityBit set means the whole row
	// must be installed on apply (created, or a slot past the bitmap).
	// Zero means the buffer was only read from (committedContainer).
	wroteBits Bits
	created   bool
}

// Workspace is the per-transaction optimistic execution context on one
// worker: reads hit the committed store (plus the transaction's own
// writes), writes buffer as slot values inside the workspace, and
// reservations accumulate for validation. The reservation set, the first
// inlineEntities entities and the first value each of them buffers live
// inside the workspace, so a typical transaction allocates the workspace
// and nothing else. A workspace must not be copied once used.
type Workspace struct {
	committed *state.Store
	// RW is the reservation set. Finishes ship a pointer to it, so a caller
	// that keeps the workspace for reuse may Open it again only once nobody
	// reads the set any more (the validation that used it has run).
	RW RWSet

	// Entities in first-touch order: inline first, then spill. Entries are
	// handed out as interp.State, so they never move.
	n      int
	inline [inlineEntities]wsEntry
	spill  []*wsEntry
	index  map[interp.EntityRef]*wsEntry // over spill; nil up to scanLimit
}

// Open makes ws an empty workspace over the committed store, in place: a
// caller that keeps the workspace inside a larger record opens it there
// instead of allocating it on its own.
func (ws *Workspace) Open(committed *state.Store) {
	*ws = Workspace{committed: committed}
}

// resKey interns the entity reference as a reservation key.
func (ws *Workspace) resKey(ref interp.EntityRef) ResKey {
	return ResKey{Class: int32(ws.committed.ClassID(ref.Class)), Key: ref.Key}
}

// at returns the i-th entity in first-touch order.
func (ws *Workspace) at(i int) *wsEntry {
	if i < inlineEntities {
		return &ws.inline[i]
	}
	return ws.spill[i-inlineEntities]
}

// find returns the workspace's entry for ref, or nil.
func (ws *Workspace) find(ref interp.EntityRef) *wsEntry {
	for i := 0; i < ws.n && i < inlineEntities; i++ {
		if ws.inline[i].ref == ref {
			return &ws.inline[i]
		}
	}
	if ws.index != nil {
		return ws.index[ref]
	}
	for _, e := range ws.spill {
		if e.ref == ref {
			return e
		}
	}
	return nil
}

// touch returns the workspace's entry for ref, adding it on first touch.
func (ws *Workspace) touch(ref interp.EntityRef) *wsEntry {
	if e := ws.find(ref); e != nil {
		return e
	}
	var e *wsEntry
	if ws.n < inlineEntities {
		e = &ws.inline[ws.n]
	} else {
		e = new(wsEntry)
	}
	*e = wsEntry{ws: ws, ref: ref, res: ws.RW.slot(ws.resKey(ref))}
	ws.n++
	if ws.n <= inlineEntities {
		return e
	}
	ws.spill = append(ws.spill, e)
	switch {
	case ws.index != nil:
		ws.index[ref] = e
	case len(ws.spill) > scanLimit:
		ws.index = make(map[interp.EntityRef]*wsEntry, 2*len(ws.spill))
		for _, o := range ws.spill {
			ws.index[o.ref] = o
		}
	}
	return e
}

func (e *wsEntry) read(b Bits)  { e.ws.RW.entries[e.res].reads |= b }
func (e *wsEntry) write(b Bits) { e.ws.RW.entries[e.res].writes |= b }

// buffered returns the position of slot's value in vals, or -1.
func (e *wsEntry) buffered(slot int) int {
	for i := range e.vals {
		if e.vals[i].Slot == slot {
			return i
		}
	}
	return -1
}

// buffer sets slot's value in vals.
func (e *wsEntry) buffer(slot int, v interp.Value) {
	if i := e.buffered(slot); i >= 0 {
		e.vals[i].V = v
		return
	}
	if e.vals == nil {
		e.vals = e.first[:0]
	}
	e.vals = append(e.vals, interp.SlotValue{Slot: slot, V: v})
}

// owned reports whether the entry shadows the committed store: the
// transaction created the entity or buffered a value of it.
func (e *wsEntry) owned() bool { return e.created || len(e.vals) > 0 }

// committedContainer reports whether v, just read from the committed image,
// is a list or dict. The interpreter mutates containers in place and only
// afterwards re-stores them (touchStateAttr), so handing one out would let
// an aborted or void attempt leave its mutation behind in committed state;
// the caller buffers a private copy (Value.Clone) and hands out that.
func committedContainer(v interp.Value) bool {
	return v.Kind == interp.KList || v.Kind == interp.KDict
}

// GetSlot implements interp.State: own writes first, then the committed
// image.
func (e *wsEntry) GetSlot(slot int) (interp.Value, bool) {
	e.read(SlotBit(slot))
	if i := e.buffered(slot); i >= 0 {
		return e.vals[i].V, true
	}
	if e.base == nil {
		return interp.None, false
	}
	v, ok := e.base.GetSlot(slot)
	if ok && committedContainer(v) {
		v = v.Clone()
		e.buffer(slot, v)
	}
	return v, ok
}

// SetSlot implements interp.State: the value is buffered in the workspace.
func (e *wsEntry) SetSlot(slot int, v interp.Value) {
	if slot < 63 {
		b := SlotBit(slot)
		e.write(b)
		e.wroteBits |= b
	} else {
		// A slot past the bitmap: Apply installs the whole row, so the
		// reservation must cover every slot — otherwise a lower-TID slot
		// write would pass validation and then be reverted by the row
		// install.
		e.write(AllBits)
		e.wroteBits |= EntityBit
	}
	e.buffer(slot, v)
}

// layout returns the entity's class layout.
func (e *wsEntry) layout() *ir.ClassLayout {
	if e.base != nil {
		return e.base.Layout()
	}
	return e.ws.committed.Layouts().LayoutOf(e.ref.Class)
}

// image builds the row a whole-entity write installs: the committed image
// (or, for a creation, an empty row) with every buffered value set over it.
func (e *wsEntry) image() *interp.Row {
	var row *interp.Row
	if e.base != nil {
		row = e.base.Clone()
	} else {
		row = interp.NewRow(e.layout())
	}
	for _, sv := range e.vals {
		row.SetSlot(sv.Slot, sv.V)
	}
	return row
}

// Lookup implements core.Store for the executor. Absence is an
// observation too: a lookup that misses still reserves the key, so a
// transaction that failed because an entity did not exist conflicts with
// a same-batch creation of it — without the phantom read its error would
// validate as definitive even though the serial order creates the entity
// first.
func (ws *Workspace) Lookup(ref interp.EntityRef) (interp.State, bool) {
	if e := ws.find(ref); e != nil && e.owned() {
		e.read(EntityBit)
		return e, true
	}
	base, exists := ws.committed.Lookup(ref)
	if !exists {
		ws.RW.Read(ws.resKey(ref), EntityBit)
		return nil, false
	}
	e := ws.touch(ref)
	e.read(EntityBit)
	e.base = base
	return e, true
}

// Create implements core.Store: new entities are buffered like writes, so
// a constructor that fails leaves its writes in a workspace that commits
// nothing.
func (ws *Workspace) Create(ref interp.EntityRef, ctor func(interp.State) error) error {
	if ws.committed.Exists(ref) {
		return fmt.Errorf("entity %s already exists", ref)
	}
	e := ws.touch(ref)
	if e.created {
		return fmt.Errorf("entity %s already exists", ref)
	}
	e.write(AllBits)
	e.base, e.vals = nil, nil
	e.wroteBits, e.created = AllBits, true
	return ctor(e)
}

// Written calls fn for every entity the transaction buffered a write for.
// changed reports whether installing it would change the entity's encoding
// in the committed store: the transaction created the entity, or some
// buffered value encodes differently from the committed one. The global
// sequencer derives a batch's write-sets from it.
func (ws *Workspace) Written(fn func(ref interp.EntityRef, changed bool)) {
	for i := 0; i < ws.n; i++ {
		if e := ws.at(i); e.wroteBits != 0 {
			base, exists := ws.committed.Lookup(e.ref)
			fn(e.ref, !exists || !base.Holds(e.vals))
		}
	}
}

// Apply installs the workspace's buffered writes into the committed
// store. Whole-entity writes (creations, slots past the bitmap) install a
// row built from the buffer; plain attribute writes set the written slots
// into the committed row in place, so lower-TID writes to disjoint slots
// survive. Callers must apply committed workspaces in TID order. (Within
// one workspace the entities are distinct, so their order does not matter.)
func (ws *Workspace) Apply(dst *state.Store) {
	for i := 0; i < ws.n; i++ {
		e := ws.at(i)
		if e.wroteBits == 0 {
			continue // read-only, or only private container copies read from
		}
		base, exists := dst.Lookup(e.ref)
		if !exists || e.created || e.wroteBits&EntityBit != 0 {
			dst.Put(e.ref, e.image())
			continue
		}
		for _, sv := range e.vals {
			if e.wroteBits&SlotBit(sv.Slot) != 0 {
				base.SetSlot(sv.Slot, sv.V)
			}
		}
	}
}

// WriteBytes is the serialized size of the rows Apply installs — the
// committed images with the buffered values over them — computed without
// building them (the worker cost model charges a commit by it).
func (ws *Workspace) WriteBytes() int {
	total := 0
	for i := 0; i < ws.n; i++ {
		if e := ws.at(i); e.wroteBits != 0 {
			total += interp.EncodedSizeWith(e.layout(), e.base, e.vals)
		}
	}
	return total
}

// Validate runs Aria's deterministic conflict check over one worker's
// local reservations. order is the batch's TID order; sets holds the
// local reservation set of each transaction that touched this worker. A
// transaction aborts if any slot it read or wrote was written by a
// lower-TID transaction in the batch — the WAW and RAW rules of Aria
// (reads observe the batch-start snapshot, so WAR never aborts). The
// check deliberately counts reservations of transactions that themselves
// abort (Aria's conservative one-pass rule), keeping validation
// embarrassingly parallel across workers. The check is per key, so Validate
// over the union of several workers' sets aborts exactly what the OR of
// Validate over each worker's sets aborts.
func Validate(order []TID, sets map[TID]*RWSet) []TID {
	var v Validator
	var aborts []TID
	for _, tid := range order {
		rw, ok := sets[tid]
		if !ok {
			continue
		}
		if v.Conflicts(rw) {
			aborts = append(aborts, tid)
		}
		v.Add(rw)
	}
	return aborts
}

// Validator is Validate's incremental form, for a caller that holds a
// transaction's reservations as several sets (one per worker its call chain
// ran on): visit the transactions in TID order, and ask Conflicts of every
// set of a transaction before Adding any of them. A Validator must not be
// copied once used (its set may point into itself).
type Validator struct {
	earlier RWSet // writes of the transactions added so far
}

// Reset empties v for another batch. It keeps what v allocated (its spilled
// entries and index), so a caller that validates batch after batch reuses
// one Validator instead of allocating one per batch.
func (v *Validator) Reset() {
	v.earlier.entries = v.earlier.entries[:0]
	clear(v.earlier.index)
}

// Conflicts reports whether rw read or wrote a slot that an added
// transaction wrote: Aria's WAW and RAW rules.
func (v *Validator) Conflicts(rw *RWSet) bool {
	for i := range rw.entries {
		e := &rw.entries[i]
		if w := v.earlier.find(e.key); w != nil && w.writes&(e.reads|e.writes) != 0 {
			return true
		}
	}
	return false
}

// Add records rw's writes against the transactions after it.
func (v *Validator) Add(rw *RWSet) {
	for i := range rw.entries {
		if e := &rw.entries[i]; e.writes != 0 {
			v.earlier.Write(e.key, e.writes)
		}
	}
}

// Conflicts reports whether two reservation sets touch overlapping
// reservation bits in a way that orders them (WAW, RAW or WAR): if so,
// the two transactions must commit in their relative serial order —
// read/read overlap alone never conflicts.
func Conflicts(a, b *RWSet) bool {
	if len(b.entries) < len(a.entries) {
		a, b = b, a
	}
	for i := range a.entries {
		ea := &a.entries[i]
		if eb := b.find(ea.key); eb != nil && (ea.writes&(eb.reads|eb.writes)|eb.writes&ea.reads) != 0 {
			return true
		}
	}
	return false
}

// Schedule is the fallback phase's deterministic plan for a batch's
// conflict-aborted transactions: which of them commit via deterministic
// re-execution and in what order.
type Schedule struct {
	// Rounds lists every fallback-scheduled transaction in re-execution
	// rounds; their concatenation is the deterministic apply order. Members
	// of one round have pairwise-disjoint reservation footprints, so they may
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
	return sched
}

// Interface checks.
var (
	_ core.Store   = (*Workspace)(nil)
	_ interp.State = (*wsEntry)(nil)
)
