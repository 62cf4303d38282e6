// Package fifo provides the one queue type the simulator's layers share: a
// growable ring buffer. It replaces the `q = q[1:]` + `append` idiom, which
// re-grows the backing array after every pop (the head slides off the front
// and the capacity is lost) and keeps popped pointers alive behind the slice
// head. A Queue allocates only when it grows and zeroes every slot it
// vacates.
package fifo

// Queue is a FIFO of T. The zero value is an empty queue ready for use. It is
// not safe for concurrent use — like every datapath structure here it belongs
// to one engine.
type Queue[T any] struct {
	buf  []T // len(buf) is zero or a power of two
	head int // index of the front element
	n    int
}

// Len returns the number of queued elements.
func (q *Queue[T]) Len() int { return q.n }

func (q *Queue[T]) slot(i int) *T { return &q.buf[(q.head+i)&(len(q.buf)-1)] }

// grow doubles the ring, unrolling it to start at index 0.
func (q *Queue[T]) grow() {
	size := 2 * len(q.buf)
	if size == 0 {
		size = 8
	}
	buf := make([]T, size)
	for i := 0; i < q.n; i++ {
		buf[i] = *q.slot(i)
	}
	q.buf, q.head = buf, 0
}

// Push appends v at the back.
func (q *Queue[T]) Push(v T) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.n++
	*q.slot(q.n - 1) = v
}

// Pop removes and returns the front element. It panics on an empty queue.
func (q *Queue[T]) Pop() T {
	v := q.Front()
	var zero T
	*q.slot(0) = zero
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return v
}

// Front returns the front element without removing it. It panics on an empty
// queue.
func (q *Queue[T]) Front() T { return q.At(0) }

// At returns the i-th element from the front (0 = front).
func (q *Queue[T]) At(i int) T {
	if i < 0 || i >= q.n {
		panic("fifo: index out of range")
	}
	return *q.slot(i)
}

// Insert places v so that it becomes the i-th element from the front
// (0 = new front, Len() = Push). It shifts whichever side of i is shorter,
// so inserting near either end is O(1).
func (q *Queue[T]) Insert(i int, v T) {
	if i < 0 || i > q.n {
		panic("fifo: index out of range")
	}
	if q.n == len(q.buf) {
		q.grow()
	}
	if i < q.n-i {
		// Slide the front part one slot toward lower indices.
		q.head = (q.head - 1) & (len(q.buf) - 1)
		q.n++
		for j := 0; j < i; j++ {
			*q.slot(j) = *q.slot(j + 1)
		}
	} else {
		q.n++
		for j := q.n - 1; j > i; j-- {
			*q.slot(j) = *q.slot(j - 1)
		}
	}
	*q.slot(i) = v
}

// Clear empties the queue, keeping its capacity.
func (q *Queue[T]) Clear() {
	clear(q.buf)
	q.head, q.n = 0, 0
}
