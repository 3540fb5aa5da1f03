package sched

// Ring is the queue every job path uses: Q's inbox, the pending FIFO, R's
// queue, the conductor's throttle queue and the workflow's ready and redo
// buffers. Pushes at either end and pops at the front are O(1) and reuse the
// backing array, which doubles only when full; a vacated slot is zeroed, so
// the ring never pins what left it. The zero Ring is empty and ready to use.
type Ring[T any] struct {
	buf     []T
	head, n int
}

// Len returns the number of queued elements.
func (r *Ring[T]) Len() int { return r.n }

// grow makes room for one more element, doubling a full ring.
func (r *Ring[T]) grow() {
	if r.n < len(r.buf) {
		return
	}
	buf := make([]T, 0, max(8, 2*len(r.buf)))
	r.buf, r.head = r.AppendTo(buf)[:cap(buf)], 0
}

// at returns the index in buf of the i-th element from the front.
func (r *Ring[T]) at(i int) int {
	i += r.head
	if i >= len(r.buf) {
		i -= len(r.buf)
	}
	return i
}

// PushBack queues v at the back.
func (r *Ring[T]) PushBack(v T) {
	r.grow()
	r.buf[r.at(r.n)] = v
	r.n++
}

// PushFront queues v at the front, ahead of everything queued.
func (r *Ring[T]) PushFront(v T) {
	r.grow()
	r.head = r.at(len(r.buf) - 1)
	r.buf[r.head] = v
	r.n++
}

// Front returns the front element without removing it. The ring must not
// be empty.
func (r *Ring[T]) Front() T { return r.buf[r.head] }

// PopFront removes and returns the front element. The ring must not be
// empty.
func (r *Ring[T]) PopFront() T {
	var zero T
	v := r.buf[r.head]
	r.buf[r.head] = zero
	r.head = r.at(1)
	r.n--
	return v
}

// Remove deletes the first element, front to back, that match reports,
// closing the gap toward the front; it reports whether one was found.
func (r *Ring[T]) Remove(match func(T) bool) bool {
	for i := 0; i < r.n; i++ {
		if !match(r.buf[r.at(i)]) {
			continue
		}
		for ; i < r.n-1; i++ {
			r.buf[r.at(i)] = r.buf[r.at(i+1)]
		}
		var zero T
		r.buf[r.at(r.n-1)] = zero
		r.n--
		return true
	}
	return false
}

// AppendTo appends the elements front to back: the run up to the end of the
// backing array, then the run that wrapped.
func (r *Ring[T]) AppendTo(out []T) []T {
	first := min(r.n, len(r.buf)-r.head)
	return append(append(out, r.buf[r.head:r.head+first]...), r.buf[:r.n-first]...)
}
