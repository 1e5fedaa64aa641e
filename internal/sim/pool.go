package sim

// Zero-allocation building blocks for the simulator hot path. The steady
// state of a measurement run cycles the same bounded population of
// packets, flits and queue slots; these types keep that population on a
// handful of reusable backing arrays instead of churning the heap every
// cycle. Ownership rule: each pool/queue belongs to exactly one network
// (and each network to one goroutine), so none of this needs locking.

// queue is an amortized-zero-alloc FIFO. pop advances a head index instead
// of re-slicing (q = q[1:] strands capacity and forces append to
// reallocate); push rewinds to the buffer start whenever the queue drains
// and compacts when the dead prefix dominates, so steady-state traffic
// reuses one backing array forever.
type queue[T any] struct {
	buf  []T
	head int
}

func (q *queue[T]) len() int { return len(q.buf) - q.head }

func (q *queue[T]) push(x T) {
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	} else if q.head >= 32 && q.head*2 >= len(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		var zero T
		for i := n; i < len(q.buf); i++ {
			q.buf[i] = zero
		}
		q.buf = q.buf[:n]
		q.head = 0
	}
	q.buf = append(q.buf, x)
}

func (q *queue[T]) front() T { return q.buf[q.head] }

func (q *queue[T]) pop() T {
	var zero T
	x := q.buf[q.head]
	q.buf[q.head] = zero
	q.head++
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	}
	return x
}

// ringBuf is a fixed-capacity FIFO for buffers whose occupancy is bounded
// by construction (extension buffers, credit-backed input-VC FIFOs). push
// panics on overflow, surfacing flow-control bugs instead of hiding them.
type ringBuf[T any] struct {
	buf     []T
	head, n int
}

// segment returns the i-th of the consecutive size-element segments of
// back, capped at its own end. The networks carve their per-node and
// per-VC state from backing arrays this way, so building one costs a fixed
// number of allocations whatever its size.
func segment[T any](back []T, i, size int) []T {
	return back[i*size : (i+1)*size : (i+1)*size]
}

func (r *ringBuf[T]) len() int { return r.n }

func (r *ringBuf[T]) push(x T) {
	if r.n == len(r.buf) {
		panic("sim: fixed FIFO overflow")
	}
	i := r.head + r.n
	if i >= len(r.buf) {
		i -= len(r.buf)
	}
	r.buf[i] = x
	r.n++
}

func (r *ringBuf[T]) front() T { return r.buf[r.head] }

func (r *ringBuf[T]) pop() T {
	var zero T
	x := r.buf[r.head]
	r.buf[r.head] = zero
	r.head++
	if r.head == len(r.buf) {
		r.head = 0
	}
	r.n--
	return x
}

// pool hands out recycled values, carving fresh ones from 256-element
// blocks when the freelist is empty. Once the run's peak population has
// been carved, every get is served from the freelist and the heap is never
// touched again. put zeroes the value so pooled objects don't pin packets.
type pool[T any] struct {
	free  []*T
	block []T
}

func (p *pool[T]) get() *T {
	if n := len(p.free); n > 0 {
		x := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		return x
	}
	if len(p.block) == 0 {
		p.block = make([]T, 256)
	}
	x := &p.block[0]
	p.block = p.block[1:]
	return x
}

func (p *pool[T]) put(x *T) {
	var zero T
	*x = zero
	p.free = append(p.free, x)
}
