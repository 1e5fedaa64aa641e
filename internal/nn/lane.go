package nn

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// The weight-gradient lane. Nothing reads a conv layer's weight and bias
// gradients until PolicyValueNet.Backward returns, so during that call each
// Conv2D.Backward hands them to the lane as a job and returns as soon as
// its input gradient is done; the next layer's backward then runs on the
// caller while a helper goroutine computes this layer's gradients on
// another CPU. Before it returns, PolicyValueNet.Backward joins: it runs
// itself, on its own arena, every job of its own that no helper has taken,
// then waits for the ones a helper is running.
//
// The lane is process-wide: GOMAXPROCS−1 helpers, started on the first job
// and shared by every network, so a search with many learners (or a test
// that builds hundreds of networks) starts no goroutine and keeps no
// buffer per network. Each helper owns one Arena for its conv scratch,
// which grows to the largest layer it has run. A helper that finds the
// queue empty looks again for spinFor, yielding its processor between
// looks, then parks until the next job. Helpers live as long as the
// process; parked, they cost nothing. At GOMAXPROCS 1 no job is made and
// no helper is started: Backward runs every layer's gradients in line.
//
// Byte identity holds by construction: the work is split only by layer,
// and a layer's gradients are written only by its own job, in the
// sample order of the in-line path, so every element keeps its addition
// chain whoever runs the job.
type lane struct {
	mu      sync.Mutex
	queue   []*Conv2D    // submitted jobs no executor has taken, oldest first
	queued  atomic.Int32 // len(queue), for helpers looking without the lock
	helpers atomic.Int32 // helper goroutines started
	parked  atomic.Int32 // helpers blocked on wake
	wake    chan struct{}
}

// dwLane is the process's weight-gradient lane.
var dwLane = newLane()

func newLane() *lane { return &lane{wake: make(chan struct{}, 1)} }

// spinFor is how long an idle helper keeps looking for a job before it
// parks. Within one Backward the next job arrives after one layer's
// input gradient, well inside it; between Backward calls a helper parks.
const spinFor = 50 * time.Microsecond

// open reports whether Backward should defer its conv gradients to the
// lane: true when GOMAXPROCS > 1, after making sure GOMAXPROCS−1 helpers
// run.
func (l *lane) open() bool {
	procs := runtime.GOMAXPROCS(0)
	if procs < 2 {
		return false
	}
	if int(l.helpers.Load()) < procs-1 {
		l.mu.Lock()
		for n := l.helpers.Load(); int(n) < procs-1; n++ {
			go l.help()
			l.helpers.Store(n + 1)
		}
		l.mu.Unlock()
	}
	return true
}

// submit queues c's weight-gradient job and wakes a parked helper.
func (l *lane) submit(c *Conv2D) {
	c.arena.pending.Add(1)
	l.mu.Lock()
	l.queue = append(l.queue, c)
	l.queued.Store(int32(len(l.queue)))
	l.mu.Unlock()
	if l.parked.Load() > 0 {
		select {
		case l.wake <- struct{}{}:
		default: // a wake-up is already pending
		}
	}
}

// take removes and returns the job at queue index i.
func (l *lane) take(i int) *Conv2D {
	c := l.queue[i]
	n := copy(l.queue[i:], l.queue[i+1:])
	l.queue[i+n] = nil
	l.queue = l.queue[:i+n]
	l.queued.Store(int32(len(l.queue)))
	return c
}

// next takes the oldest job, or returns nil on an empty queue.
func (l *lane) next() *Conv2D {
	if l.queued.Load() == 0 {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.queue) == 0 {
		return nil
	}
	return l.take(0)
}

// nextOf takes a's newest job, or returns nil when a has none queued. A
// joining caller takes from the back while helpers take from the front,
// so the last layer it submitted, often the largest, starts at once.
func (l *lane) nextOf(a *Arena) *Conv2D {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := len(l.queue) - 1; i >= 0; i-- {
		if l.queue[i].arena == a {
			return l.take(i)
		}
	}
	return nil
}

// help is a helper's loop: run the oldest job on the helper's own arena,
// or look again for spinFor and then park.
func (l *lane) help() {
	var scratch Arena
	for {
		if c := l.next(); c != nil {
			c.weightGrads(&scratch)
			c.arena.pending.Add(-1)
			continue
		}
		l.idle()
	}
}

// idle returns once a job may be queued: at once if one is, after up to
// spinFor of looking, or when a submit wakes the parked helper.
func (l *lane) idle() {
	for t0 := time.Now(); time.Since(t0) < spinFor; {
		if l.queued.Load() > 0 {
			return
		}
		runtime.Gosched()
	}
	// Count this helper parked before the last look: a submit stores the
	// queue length before it reads parked, so one of the two sees the
	// other and no job waits on a parked lane.
	l.parked.Add(1)
	if l.queued.Load() == 0 {
		<-l.wake
	}
	l.parked.Add(-1)
}

// join returns once every job a has submitted has finished: it runs on a
// the jobs of a's no helper has taken, newest first, then waits for the
// ones in progress, yielding its processor between looks. (Blocking on a
// channel instead measured slower: −8% against −14% on search-8x8
// step_us, 10 alternating pairs each.)
func (l *lane) join(a *Arena) {
	for c := l.nextOf(a); c != nil; c = l.nextOf(a) {
		c.weightGrads(a)
		a.pending.Add(-1)
	}
	for a.pending.Load() > 0 {
		runtime.Gosched()
	}
}
