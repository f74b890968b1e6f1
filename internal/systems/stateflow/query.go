// Querying stateful entities (§5 "Querying Stateful Entities"): the paper
// proposes exposing the global state of the dataflow processor to queries,
// trading freshness against consistency. This file implements both ends of
// that tradeoff over the StateFlow runtime, following the S-QUERY idea the
// paper cites:
//
//   - QuerySnapshot reads the latest completed aligned snapshot — a
//     consistent cut (it coincides with an epoch boundary, so it reflects
//     a transaction-consistent prefix), but stale by up to the snapshot
//     interval;
//   - QueryLive reads the workers' committed stores directly: each worker's
//     applied cut, fresh up to the last batch it installed. It is the state
//     a fast read sees (read.go), without the fast read's waits — for a
//     chain's final decide, a park or a replay — so a query racing an
//     in-progress apply may observe one worker a cut ahead of another;
//     callers choose.
package stateflow

import (
	"fmt"
	"sort"

	"statefulentities.dev/stateflow/internal/interp"
)

// QueryConsistency selects the freshness/consistency point of a query.
type QueryConsistency int

// Query modes.
const (
	// QuerySnapshot reads the latest aligned snapshot (consistent, stale).
	QuerySnapshot QueryConsistency = iota
	// QueryLive reads committed worker state (fresh).
	QueryLive
)

// Row is one entity returned by a query.
type Row struct {
	Key   string
	State interp.MapState
}

// Query scans every entity of a class. Rows are sorted by key so results
// are deterministic.
func (s *System) Query(class string, mode QueryConsistency) ([]Row, error) {
	pred := func(Row) bool { return true }
	return s.QueryWhere(class, mode, pred)
}

// QueryWhere scans a class and keeps rows matching the predicate.
func (s *System) QueryWhere(class string, mode QueryConsistency, pred func(Row) bool) ([]Row, error) {
	if s.prog.Operator(class) == nil {
		return nil, fmt.Errorf("stateflow: unknown entity class %s", class)
	}
	var rows []Row
	switch mode {
	case QueryLive:
		for _, w := range s.workers {
			for _, ref := range w.committed.Refs() {
				if ref.Class != class {
					continue
				}
				st, _ := w.committed.Lookup(ref)
				rows = appendIf(rows, ref.Key, st, pred)
			}
		}
	case QuerySnapshot:
		// Sealed snapshots only: an image-complete but unsealed snapshot
		// may hold effects a crash would roll back, and a query must never
		// observe state recovery could later disown.
		meta, ok := s.coord.restorePoint()
		if !ok {
			return nil, fmt.Errorf("stateflow: no snapshot available yet")
		}
		for _, wid := range s.workerIDs {
			store, err := s.Snapshots.RestoreStore(meta.ID, wid)
			if err != nil {
				return nil, err
			}
			for _, ref := range store.Refs() {
				if ref.Class != class {
					continue
				}
				st, _ := store.Lookup(ref)
				rows = appendIf(rows, ref.Key, st, pred)
			}
		}
	default:
		return nil, fmt.Errorf("stateflow: unknown query mode %d", mode)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Key < rows[j].Key })
	return rows, nil
}

func appendIf(rows []Row, key string, st *interp.Row, pred func(Row) bool) []Row {
	row := Row{Key: key, State: st.CloneMap()}
	if pred(row) {
		rows = append(rows, row)
	}
	return rows
}

// AggregateInt sums an integer attribute over a query result — the
// simplest global-state aggregation (e.g. total money in the bank).
func AggregateInt(rows []Row, attr string) int64 {
	var total int64
	for _, r := range rows {
		if v, ok := r.State[attr]; ok && v.Kind == interp.KInt {
			total += v.I
		}
	}
	return total
}
