package stream

// fifo is the node-owned queue behind a session's in-edge heads and the
// source's ingest backlog: a live window buf[head:] over a backing array.
// Pop costs O(messages popped), never O(messages queued) — a head queue
// sits near its edge's capacity whenever the edge is credit-stalled, and
// shifting it per consumed message was the largest single cost of a
// batch-1 hop.  The window stays contiguous, so the batched path can
// scan a run of heads as a plain slice.
//
// The array grows on demand (sessions of a few messages never pay for
// the edge's full capacity) and stops growing once it holds twice the
// deepest backlog: from then on a push that finds the tail exhausted
// slides the live part — at most half the array, after at least as many
// pops — back to the front, so steady state neither allocates nor costs
// more than one move per message.  Its capacity therefore stays under four
// times the deepest backlog (or 8 slots): it only grows from below twice it.
type fifo[T any] struct {
	buf  []T
	head int
}

func (q *fifo[T]) len() int { return len(q.buf) - q.head }

// live returns the queued elements, oldest first; valid until the next
// push or pop.
func (q *fifo[T]) live() []T { return q.buf[q.head:] }

func (q *fifo[T]) push(v T) {
	if len(q.buf) == cap(q.buf) {
		q.reserve(1)
	}
	q.buf = append(q.buf, v)
}

func (q *fifo[T]) pushAll(vs []T) {
	if len(q.buf)+len(vs) > cap(q.buf) {
		q.reserve(len(vs))
	}
	q.buf = append(q.buf, vs...)
}

// pop drops the k oldest elements, zeroing their slots so the queue never
// retains a consumed payload.
func (q *fifo[T]) pop(k int) {
	clear(q.buf[q.head : q.head+k])
	q.head += k
	if q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
}

// reset empties the queue and keeps its array for the next session that
// reuses it, zeroing the live slots so no payload outlives its session.
func (q *fifo[T]) reset() {
	clear(q.live())
	q.buf, q.head = q.buf[:0], 0
}

// reserve makes room for k more elements behind an exhausted tail:
// compact in place when the live part is at most half the array,
// otherwise move to an array of twice the size.
func (q *fifo[T]) reserve(k int) {
	n := q.len()
	if c := cap(q.buf); n <= c/2 && n+k <= c {
		copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf, q.head = q.buf[:n], 0
		return
	}
	c := 2 * cap(q.buf)
	if c < n+k {
		c = n + k
	}
	if c < 8 {
		c = 8
	}
	buf := make([]T, n, c)
	copy(buf, q.buf[q.head:])
	q.buf, q.head = buf, 0
}
