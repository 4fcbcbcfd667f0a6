package shard

// deques is a set of per-worker double-ended queues of unit sequence
// numbers with batch tail stealing. The owner of a deque pops work from its
// head; an idle worker steals a batch from the TAIL of the most-loaded
// peer's deque, which preserves the victim's locality (the head units it
// is about to run stay put) and moves the coldest work.
type deques struct {
	qs     [][]int
	weight []int64
	weigh  func(seq int) int64

	// Per thief: successful steal operations, and the units they moved.
	stealsBy []int64
	stolenBy []int64
}

// newDeques creates n empty deques. weigh prices one unit for victim
// selection.
func newDeques(n int, weigh func(seq int) int64) *deques {
	return &deques{
		qs:       make([][]int, n),
		weight:   make([]int64, n),
		weigh:    weigh,
		stealsBy: make([]int64, n),
		stolenBy: make([]int64, n),
	}
}

// push appends units to the tail of owner's deque. A dying worker uses
// this to return its in-flight unit, which makes the unit stealable
// again — never silently dropped.
func (d *deques) push(owner int, seqs ...int) {
	d.qs[owner] = append(d.qs[owner], seqs...)
	for _, seq := range seqs {
		d.weight[owner] += d.weigh(seq)
	}
}

// pop removes and returns the head of owner's own deque.
func (d *deques) pop(owner int) (int, bool) {
	q := d.qs[owner]
	if len(q) == 0 {
		return 0, false
	}
	d.qs[owner] = q[1:]
	d.weight[owner] -= d.weigh(q[0])
	return q[0], true
}

// steal picks the heaviest non-empty peer deque and moves up to half of
// it (by unit count, at least one) from its tail onto owner's deque,
// then pops owner's head. It returns false only when every other deque
// is empty — the global out-of-work condition for a worker whose own
// deque is drained.
func (d *deques) steal(owner int) (int, bool) {
	victim, best := -1, int64(0)
	for w := range d.qs {
		if w == owner || len(d.qs[w]) == 0 {
			continue
		}
		if victim == -1 || d.weight[w] > best {
			victim, best = w, d.weight[w]
		}
	}
	if victim == -1 {
		// Nothing to steal: what the owner's own deque holds is all the
		// work there is.
		return d.pop(owner)
	}
	q := d.qs[victim]
	k := (len(q) + 1) / 2
	batch := q[len(q)-k:]
	var moved int64
	for _, seq := range batch {
		moved += d.weigh(seq)
	}
	d.qs[owner] = append(d.qs[owner], batch...)
	d.qs[victim] = q[:len(q)-k]
	d.weight[victim] -= moved
	d.weight[owner] += moved
	d.stealsBy[owner]++
	d.stolenBy[owner] += int64(k)
	return d.pop(owner)
}

// drain removes and returns every remaining unit across all deques, in
// deque order — the coordinator's fallback for work returned by a dying
// worker after its peers already left.
func (d *deques) drain() []int {
	var out []int
	for w := range d.qs {
		out = append(out, d.qs[w]...)
		d.qs[w] = nil
		d.weight[w] = 0
	}
	return out
}
