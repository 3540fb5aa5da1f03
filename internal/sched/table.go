package sched

import "slices"

// JobTable maps live job IDs to records of type T. The records are packed
// in one slice, in no order, and per ID — dense from 1 within one
// scheduler — there is only a 4-byte slot, so a table costs what its live
// jobs hold plus four bytes per ID issued, and its arrays are reused as jobs
// come and go. An ID above every ID put (a late end from an earlier
// scheduler) reads as absent. The zero JobTable is empty and ready to use.
type JobTable[T any] struct {
	recs []tableRec[T]
	slot []int32 // by ID: 1 + the ID's index in recs, 0 when absent
}

type tableRec[T any] struct {
	id  JobID
	rec T
}

// Len returns the number of live records.
func (t *JobTable[T]) Len() int { return len(t.recs) }

// Get returns id's record.
func (t *JobTable[T]) Get(id JobID) (T, bool) {
	if id <= 0 || id >= JobID(len(t.slot)) || t.slot[id] == 0 {
		var zero T
		return zero, false
	}
	return t.recs[t.slot[id]-1].rec, true
}

// Put sets id's record and reports whether id was absent before.
func (t *JobTable[T]) Put(id JobID, rec T) bool {
	if id >= JobID(len(t.slot)) {
		k := int(id) + 1 - len(t.slot)
		t.slot = append(grown(t.slot, k), make([]int32, k)...)
	}
	if k := t.slot[id]; k > 0 {
		t.recs[k-1].rec = rec
		return false
	}
	t.recs = push(t.recs, tableRec[T]{id, rec})
	t.slot[id] = int32(len(t.recs))
	return true
}

// Remove drops id and reports whether it was present.
func (t *JobTable[T]) Remove(id JobID) bool {
	if _, ok := t.Get(id); !ok {
		return false
	}
	k, last := t.slot[id]-1, len(t.recs)-1
	t.recs[k] = t.recs[last]
	t.slot[t.recs[k].id] = k + 1
	t.recs[last] = tableRec[T]{}
	t.recs = t.recs[:last]
	t.slot[id] = 0
	return true
}

// Ascending returns the live IDs in ascending order.
func (t *JobTable[T]) Ascending() []JobID {
	ids := make([]JobID, 0, len(t.recs))
	for id, k := range t.slot {
		if k > 0 {
			ids = append(ids, JobID(id))
		}
	}
	return ids
}

// push appends v, doubling a full array.
func push[T any](s []T, v T) []T { return append(grown(s, 1), v) }

// grown returns s with room for n more elements, at least doubling its
// array when it is short. append grows a large slice by a quarter, so a
// table filled an entry at a time would allocate about five times its final
// size over its growth; doubling allocates twice.
func grown[T any](s []T, n int) []T {
	if len(s)+n > cap(s) {
		s = slices.Grow(s, max(n, len(s), 8))
	}
	return s
}
