package core

// node is one vertex of the execution tree of Algorithm 1: a set query
// over the half-open index range [b, e) of the working id slice.
type node struct {
	b, e    int
	parent  *node
	left    *node
	right   *node
	checked bool // one child already answered yes (line 14-15)

	// intrusive FIFO-queue links; Algorithm 1 (line 12) must remove a
	// specific node from the middle of the queue when sibling
	// inference fires, which a channel or slice queue cannot do in
	// O(1).
	qprev, qnext *node
	inQueue      bool
}

// size returns the number of objects in the node's range.
func (t *node) size() int { return t.e - t.b }

// queue is a FIFO of tree nodes supporting O(1) removal of arbitrary
// members, implemented as a circular doubly-linked list around a
// sentinel.
type queue struct {
	sentinel node
	n        int
}

func newQueue() *queue {
	q := &queue{}
	q.init()
	return q
}

// init links the sentinel to itself. A queue embedded by value must be
// initialized at its final address before use.
func (q *queue) init() {
	q.sentinel.qprev = &q.sentinel
	q.sentinel.qnext = &q.sentinel
}

func (q *queue) empty() bool { return q.n == 0 }

func (q *queue) len() int { return q.n }

// push appends the node at the back.
func (q *queue) push(t *node) {
	if t.inQueue {
		panic("core: node already queued")
	}
	last := q.sentinel.qprev
	last.qnext = t
	t.qprev = last
	t.qnext = &q.sentinel
	q.sentinel.qprev = t
	t.inQueue = true
	q.n++
}

// front returns the front node without removing it; nil when empty.
func (q *queue) front() *node {
	if q.n == 0 {
		return nil
	}
	return q.sentinel.qnext
}

// next returns the node after t in queue order; nil at the back. The
// round walks use front/next to peek a prefix of the queue before
// posting it as one batch.
func (q *queue) next(t *node) *node {
	if t.qnext == &q.sentinel {
		return nil
	}
	return t.qnext
}

// pop removes and returns the front node; nil when empty.
func (q *queue) pop() *node {
	if q.n == 0 {
		return nil
	}
	t := q.sentinel.qnext
	q.remove(t)
	return t
}

// remove unlinks a specific node; it must be in the queue.
func (q *queue) remove(t *node) {
	if !t.inQueue {
		panic("core: removing node not in queue")
	}
	t.qprev.qnext = t.qnext
	t.qnext.qprev = t.qprev
	t.qprev, t.qnext = nil, nil
	t.inQueue = false
	q.n--
}
