package fifo

import (
	"math/rand"
	"testing"
)

// TestQueueMatchesSlice drives a Queue and the slice idiom it replaces with
// the same random operation stream and compares them after every step.
func TestQueueMatchesSlice(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var q Queue[int]
	var ref []int
	for step := 0; step < 20000; step++ {
		switch op := r.Intn(10); {
		case op < 4:
			q.Push(step)
			ref = append(ref, step)
		case op < 7 && len(ref) > 0:
			if got, want := q.Pop(), ref[0]; got != want {
				t.Fatalf("step %d: Pop = %d, want %d", step, got, want)
			}
			ref = ref[1:]
		case op < 9:
			i := r.Intn(len(ref) + 1)
			q.Insert(i, step)
			ref = append(ref, 0)
			copy(ref[i+1:], ref[i:])
			ref[i] = step
		case step%500 == 0:
			q.Clear()
			ref = ref[:0]
		}
		if q.Len() != len(ref) {
			t.Fatalf("step %d: Len = %d, want %d", step, q.Len(), len(ref))
		}
		for i, want := range ref {
			if got := q.At(i); got != want {
				t.Fatalf("step %d: At(%d) = %d, want %d", step, i, got, want)
			}
		}
	}
}

func TestQueuePopReleasesSlot(t *testing.T) {
	var q Queue[*int]
	q.Push(new(int))
	q.Pop()
	for i, p := range q.buf {
		if p != nil {
			t.Fatalf("slot %d still pins a popped pointer", i)
		}
	}
}

func TestQueueEmptyPanics(t *testing.T) {
	for name, fn := range map[string]func(q *Queue[int]){
		"Pop":    func(q *Queue[int]) { q.Pop() },
		"Front":  func(q *Queue[int]) { q.Front() },
		"At":     func(q *Queue[int]) { q.At(0) },
		"Insert": func(q *Queue[int]) { q.Insert(1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s on an empty queue did not panic", name)
				}
			}()
			fn(new(Queue[int]))
		}()
	}
}

func TestQueueSteadyStateAllocFree(t *testing.T) {
	var q Queue[int]
	for i := 0; i < 5; i++ {
		q.Push(i)
	}
	if n := testing.AllocsPerRun(1000, func() {
		q.Push(1)
		q.Insert(0, 2)
		q.Pop()
		q.Pop()
	}); n != 0 {
		t.Fatalf("steady-state queue ops allocate %v times", n)
	}
}
