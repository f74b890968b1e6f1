// Package snapshot implements the consistent-snapshot fault-tolerance
// protocol of the StateFlow runtime (§3): aligned snapshots taken at epoch
// boundaries (when no transaction is in flight, the epoch barrier doubles
// as the Chandy-Lamport alignment point) persisted to a durable store,
// together with the replayable-source offsets needed to roll forward after
// recovery.
//
// Images are the bulk of a deployment's snapshot cost, so their storage is
// recycled: when Compact retires an image whose worker a begun snapshot
// still awaits, it keeps the image as that worker's spare, and the worker's
// next WriteStore encodes into the spare when it is large enough. A byte
// slice Read returns is therefore valid only until its snapshot retires.
package snapshot

import (
	"fmt"
	"sync"

	"statefulentities.dev/stateflow/internal/ir"
	"statefulentities.dev/stateflow/internal/state"
)

// Meta describes one completed snapshot.
type Meta struct {
	ID    int64 // monotonically increasing snapshot id
	Epoch int64 // the epoch after which the snapshot was taken
	// SourceOffsets records, per source partition, how many records had
	// been consumed into committed epochs when the snapshot was taken;
	// recovery replays the suffix.
	SourceOffsets map[string][]int64
	// PendingPositions records, per source topic, the log positions of
	// requests that had been consumed but were still awaiting retry
	// (conflict-aborted) when the snapshot was taken. Their effects are
	// not in the images, so recovery must re-fetch and replay them in
	// addition to the suffix — without this the aligned cut would lose
	// in-flight retries whose positions predate the offset.
	PendingPositions map[string][]int64
	// Expected is the number of worker images the snapshot needs to be
	// complete (0 means unknown: treated as complete). Latest skips
	// snapshots that are still missing images, so a recovery triggered
	// mid-snapshot never restores a half-written cut.
	Expected int
}

// Store is the durable snapshot repository (standing in for the DFS/object
// store a production deployment would use). It retains every snapshot until
// Compact retires it, so tests can restore arbitrary points.
type Store struct {
	mu      sync.Mutex
	nextID  int64
	metas   []Meta
	images  map[int64]map[string][]byte // snapshot id -> worker id -> encoded state
	layouts *ir.Layouts                 // class layouts for restored state rows
	// spares holds, per worker, the storage of an image Compact retired,
	// for the worker's next WriteStore to encode into.
	spares map[string][]byte
}

// NewStore returns an empty snapshot store. The class-layout registry lays
// out restored state rows; an image row its layouts do not admit fails
// the restore.
func NewStore(layouts *ir.Layouts) *Store {
	return &Store{images: map[int64]map[string][]byte{}, layouts: layouts, spares: map[string][]byte{}}
}

// Begin allocates a snapshot id for an epoch.
func (s *Store) Begin(epoch int64, sourceOffsets map[string][]int64) int64 {
	return s.BeginWithPending(epoch, sourceOffsets, nil, 0)
}

// BeginWithPending allocates a snapshot id, additionally recording the
// positions of consumed-but-pending requests (see Meta.PendingPositions)
// and the number of worker images required for completeness.
func (s *Store) BeginWithPending(epoch int64, sourceOffsets, pending map[string][]int64, expected int) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextID++
	id := s.nextID
	s.metas = append(s.metas, Meta{
		ID: id, Epoch: epoch, SourceOffsets: sourceOffsets,
		PendingPositions: pending, Expected: expected,
	})
	s.images[id] = map[string][]byte{}
	return id
}

// Write stores one worker's state image for a snapshot. Writes are
// first-write-wins: a snapshot image, once persisted, is immutable — a
// duplicated or delayed snapshot request re-arriving after later batches
// committed must not overwrite the aligned cut with newer state. The store
// keeps its own copy; the caller's buffer stays the caller's.
func (s *Store) Write(id int64, worker string, image []byte) error {
	_, err := s.write(id, worker, func() []byte { return append([]byte(nil), image...) })
	return err
}

// WriteStore is Write for a worker that still holds its state as a store:
// the image is encoded once, straight into the buffer the snapshot keeps,
// instead of being built by the caller and copied here. That buffer is the
// worker's spare — the storage of its image Compact last retired — when the
// spare can hold the image, and a fresh one sized to it otherwise; either
// way the spare is used up. First-write-wins is checked before anything is
// encoded, so a duplicate costs nothing. It returns the length of the
// worker's image in the snapshot.
func (s *Store) WriteStore(id int64, worker string, st *state.Store) (n int, err error) {
	return s.write(id, worker, func() []byte {
		spare := s.spares[worker]
		delete(s.spares, worker)
		return st.EncodeInto(spare)
	})
}

// write installs the image build returns — a buffer the store may keep —
// unless the worker already has one, and reports the stored image's length.
func (s *Store) write(id int64, worker string, build func() []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	imgs, ok := s.images[id]
	if !ok {
		return 0, fmt.Errorf("snapshot: unknown snapshot %d", id)
	}
	if img, dup := imgs[worker]; dup {
		return len(img), nil // immutable once written
	}
	img := build()
	imgs[worker] = img
	return len(img), nil
}

// Latest returns the most recent complete snapshot meta (every expected
// worker image written), or ok=false when none exists. A snapshot still
// being written — e.g. when recovery fires mid-snapshot because a worker
// died before persisting its image — is skipped, so restores never use a
// half-written cut.
func (s *Store) Latest() (Meta, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := len(s.metas) - 1; i >= 0; i-- {
		m := s.metas[i]
		if m.Expected == 0 || len(s.images[m.ID]) >= m.Expected {
			return m, true
		}
	}
	return Meta{}, false
}

// Get returns the meta for a snapshot id.
func (s *Store) Get(id int64) (Meta, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, m := range s.metas {
		if m.ID == id {
			return m, true
		}
	}
	return Meta{}, false
}

// Read fetches a worker's image from a snapshot. The bytes are the store's
// own and stay valid until the snapshot retires: Compact hands them to the
// worker's next WriteStore, so a caller that keeps an image past that must
// copy it.
func (s *Store) Read(id int64, worker string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	imgs, ok := s.images[id]
	if !ok {
		return nil, false
	}
	img, ok := imgs[worker]
	return img, ok
}

// RestoreStore decodes a worker's image into a state store. A worker with
// no image in the snapshot (it held no state yet) restores to empty; a
// snapshot the store does not hold (never begun, or retired) is an error.
// The decoder copies what it keeps, so the restored store shares nothing
// with the image.
func (s *Store) RestoreStore(id int64, worker string) (*state.Store, error) {
	s.mu.Lock()
	defer s.mu.Unlock() // decoded under the lock: a Compact could hand img to a writer
	imgs, held := s.images[id]
	if !held {
		return nil, fmt.Errorf("snapshot: unknown snapshot %d", id)
	}
	img, ok := imgs[worker]
	if !ok {
		return state.NewStore(s.layouts), nil
	}
	return state.DecodeStore(img, s.layouts)
}

// Count returns the number of snapshots ever begun — a stable id bound
// (snapshot ids are 1..Count) that compaction does not shrink.
func (s *Store) Count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return int(s.nextID)
}

// Retained returns the number of snapshots still held (Count minus the
// ones Compact retired).
func (s *Store) Retained() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.metas)
}

// Compact retires old snapshots, keeping the newest keep complete ones
// (and everything newer than the oldest of those, complete or torn — a
// torn cut younger than a retained restore point still documents a
// failure under investigation). Recovery only ever restores the latest
// complete snapshot, so compaction never removes a restore target; it
// bounds the store the way log compaction bounds the dlog. keep <= 0 is
// a no-op. It returns the number of snapshots retired.
//
// A retired image becomes its worker's spare (the largest, when several of
// one worker's retire) only while a held snapshot still awaits that
// worker's image: its WriteStore is the spare's one taker. A deployment
// that compacts right after a snapshot begins thus has the snapshot write
// into the images that retire, and one that compacts after a seal keeps
// nothing idling between snapshots.
func (s *Store) Compact(keep int) int {
	if keep <= 0 {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// Find the keep-th newest complete snapshot; everything older goes.
	complete := 0
	cutoff := int64(-1)
	for i := len(s.metas) - 1; i >= 0; i-- {
		m := s.metas[i]
		if m.Expected == 0 || len(s.images[m.ID]) >= m.Expected {
			complete++
			if complete == keep {
				cutoff = m.ID
				break
			}
		}
	}
	if cutoff < 0 {
		return 0 // fewer complete snapshots than the budget: keep all
	}
	// metas are in id order, so the retired ones are a prefix.
	retired := 0
	for retired < len(s.metas) && s.metas[retired].ID < cutoff {
		retired++
	}
	for _, m := range s.metas[:retired] {
		for w, img := range s.images[m.ID] {
			if cap(img) > cap(s.spares[w]) && s.awaits(retired, w) {
				s.spares[w] = img
			}
		}
		delete(s.images, m.ID)
	}
	s.metas = append(s.metas[:0], s.metas[retired:]...)
	return retired
}

// awaits reports whether a snapshot from metas[from] on is begun and
// incomplete without worker's image.
func (s *Store) awaits(from int, worker string) bool {
	for _, m := range s.metas[from:] {
		imgs := s.images[m.ID]
		if _, written := imgs[worker]; !written && len(imgs) < m.Expected {
			return true
		}
	}
	return false
}
