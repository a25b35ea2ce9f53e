package comm

// Queue is a FIFO of messages backed by a ring buffer. Unlike the
// `q = append(q, m)` / `q = q[1:]` idiom, popped slots are zeroed and the
// backing array is reused, so delivered payloads become collectable as
// soon as the receiver drops them and the queue's memory footprint is
// bounded by its high-water mark rather than by total traffic. The zero
// value is an empty queue. Queue is not safe for concurrent use; callers
// (the live and tcp mailboxes) hold their own locks.
type Queue struct {
	buf  []Message // len(buf) is a power of two (or nil)
	head int
	n    int
}

// Len returns the number of queued messages.
func (q *Queue) Len() int { return q.n }

// Push appends a message to the tail.
func (q *Queue) Push(m Message) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = m
	q.n++
}

func (q *Queue) grow() {
	size := 2 * len(q.buf)
	if size == 0 {
		size = 8
	}
	next := make([]Message, size)
	for i := 0; i < q.n; i++ {
		next[i] = q.buf[(q.head+i)&(len(q.buf)-1)]
	}
	q.buf = next
	q.head = 0
}

// Pop removes and returns the head message. It panics on an empty queue;
// callers check Len first.
func (q *Queue) Pop() Message {
	if q.n == 0 {
		panic("comm: Pop on empty Queue")
	}
	m := q.buf[q.head]
	q.buf[q.head] = Message{} // release payload references promptly
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return m
}

// Reset empties the queue, zeroing every occupied slot so retained
// payloads become collectable, while keeping the backing array for
// reuse. The long-lived engine sessions call it between runs so a frame
// left over from an aborted run can never be delivered to the next one.
func (q *Queue) Reset() {
	for i := 0; i < q.n; i++ {
		q.buf[(q.head+i)&(len(q.buf)-1)] = Message{}
	}
	q.head, q.n = 0, 0
}
