package comm

import (
	"fmt"
	"testing"
)

func TestQueueFIFOAcrossWraparound(t *testing.T) {
	var q Queue
	next := 0 // next value to push
	want := 0 // next value expected from Pop
	push := func(n int) {
		for i := 0; i < n; i++ {
			q.Push(Message{Tag: next})
			next++
		}
	}
	pop := func(n int) {
		for i := 0; i < n; i++ {
			if got := q.Pop().Tag; got != want {
				t.Fatalf("Pop returned tag %d, want %d", got, want)
			}
			want++
		}
	}
	// Interleave pushes and pops so head wraps around the ring and the
	// buffer grows while non-empty at a non-zero head.
	push(5)
	pop(3)
	push(10) // forces growth with head mid-buffer
	pop(7)
	push(20)
	pop(q.Len())
	if q.Len() != 0 {
		t.Fatalf("queue not empty: %d", q.Len())
	}
}

// TestQueuePopReleasesPayload is the mailbox-retention regression test:
// the old append/q[1:] idiom kept every delivered payload reachable
// through the backing array. Pop must zero the slot.
func TestQueuePopReleasesPayload(t *testing.T) {
	var q Queue
	for i := 0; i < 6; i++ {
		q.Push(Message{Parts: []Part{{Origin: i, Data: make([]byte, 1024)}}})
	}
	for i := 0; i < 6; i++ {
		q.Pop()
	}
	for i := 0; i < len(q.buf); i++ {
		if q.buf[i].Parts != nil {
			t.Errorf("slot %d still references a delivered message", i)
		}
	}
}

func TestQueueBoundedByHighWaterMark(t *testing.T) {
	var q Queue
	// A long trickle through a nearly-empty queue must not grow the
	// backing array (the retention bug's other symptom: the slice view
	// marched down an ever-growing array).
	for i := 0; i < 10_000; i++ {
		q.Push(Message{Tag: i})
		q.Pop()
	}
	if len(q.buf) > 8 {
		t.Errorf("steady 1-deep traffic grew the ring to %d slots", len(q.buf))
	}
}

// TestQueueResetDropsAndZeroes: Reset must empty the queue, zero the
// occupied slots (payload release) and keep the ring for reuse, even
// with the occupied region wrapped around the array end.
func TestQueueResetDropsAndZeroes(t *testing.T) {
	var q Queue
	for i := 0; i < 6; i++ {
		q.Push(Message{Parts: []Part{{Origin: i, Data: make([]byte, 64)}}})
	}
	for i := 0; i < 5; i++ {
		q.Pop()
	}
	for i := 0; i < 6; i++ { // head is now mid-ring; wrap the tail past the end
		q.Push(Message{Parts: []Part{{Origin: 10 + i, Data: make([]byte, 64)}}})
	}
	cap0 := len(q.buf)
	q.Reset()
	if q.Len() != 0 {
		t.Fatalf("Len = %d after Reset", q.Len())
	}
	if len(q.buf) != cap0 {
		t.Fatalf("Reset changed capacity: %d -> %d", cap0, len(q.buf))
	}
	for i := 0; i < len(q.buf); i++ {
		if q.buf[i].Parts != nil {
			t.Errorf("slot %d still references a message after Reset", i)
		}
	}
	// The ring must remain usable after Reset.
	q.Push(Message{Tag: 42})
	if got := q.Pop().Tag; got != 42 {
		t.Fatalf("post-Reset Pop = %d, want 42", got)
	}
}

func TestQueuePopEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Pop on empty queue did not panic")
		}
	}()
	var q Queue
	q.Pop()
}

func TestQueueManySizes(t *testing.T) {
	for _, n := range []int{1, 7, 8, 9, 63, 64, 100} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			var q Queue
			for i := 0; i < n; i++ {
				q.Push(Message{Tag: i})
			}
			if q.Len() != n {
				t.Fatalf("Len = %d, want %d", q.Len(), n)
			}
			for i := 0; i < n; i++ {
				if got := q.Pop().Tag; got != i {
					t.Fatalf("Pop = %d, want %d", got, i)
				}
			}
		})
	}
}
