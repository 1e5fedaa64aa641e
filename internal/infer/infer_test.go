package infer

import (
	"math"
	"math/rand"
	"strconv"
	"sync"
	"testing"
	"time"

	"routerless/internal/nn"
	"routerless/internal/obs"
)

func testNet(seed int64) *nn.PolicyValueNet {
	return nn.NewPolicyValueNet(nn.TestConfig(4), seed)
}

// forward1 evaluates one state in inference mode on net.
func forward1(net *nn.PolicyValueNet, s []float64) *nn.Output {
	outs := make([]nn.Output, 1)
	net.Forward([][]float64{s}, outs, false)
	return &outs[0]
}

func randState(rng *rand.Rand, n int) []float64 {
	s := make([]float64, n*n*n*n)
	for i := range s {
		s[i] = float64(rng.Intn(5 * n))
	}
	return s
}

// evalEquals reports whether ev holds exactly (bit for bit) want.
func evalEquals(ev *Eval, want *nn.Output) bool {
	for g := 0; g < 4; g++ {
		if len(ev.CoordProbs[g]) != len(want.CoordProbs[g]) {
			return false
		}
		for i := range want.CoordProbs[g] {
			if ev.CoordProbs[g][i] != want.CoordProbs[g][i] {
				return false
			}
		}
	}
	return ev.DirPre == want.DirPre && ev.Dir == want.Dir && ev.Value == want.Value
}

// perturbed returns net's weights and BatchNorm running statistics, both
// shifted so that a net synced to them evaluates differently.
func perturbed(net *nn.PolicyValueNet) (w, st []float64) {
	w = net.GetWeights()
	for i := range w {
		w[i] += 0.01 * math.Sin(float64(i))
	}
	st = make([]float64, net.NumStats())
	net.CopyStatsInto(st)
	for i := range st {
		st[i] += 0.1 * float64(i%3)
	}
	return w, st
}

// Broker-delivered evaluations must be bit-identical to direct Forward
// calls on an identically-parameterized reference net, before and after a
// weight sync.
func TestBrokerMatchesDirectForward(t *testing.T) {
	br := New(Config{Net: testNet(1), Batch: 4})
	defer br.Close()
	ref := testNet(1)
	rng := rand.New(rand.NewSource(2))
	states := make([][]float64, 6)
	for i := range states {
		states[i] = randState(rng, 4)
	}
	var ev Eval
	check := func(phase string) {
		for i, s := range states {
			br.Submit(s, &ev)
			if !evalEquals(&ev, forward1(ref, s)) {
				t.Fatalf("%s sample %d: broker result differs from direct Forward", phase, i)
			}
		}
	}
	check("init")

	// Sync new weights and perturbed BatchNorm stats; both nets must track.
	w, st := perturbed(ref)
	ref.SetWeights(w)
	ref.SetStats(st)
	br.Sync(w, st)
	check("synced")
}

// A warmed Submit reuses the caller's Eval, the broker's request slot and
// the evaluator's arena, so it allocates nothing on either goroutine.
func TestSubmitZeroAlloc(t *testing.T) {
	br := New(Config{Net: testNet(3), Batch: 2})
	defer br.Close()
	state := randState(rand.New(rand.NewSource(4)), 4)
	var ev Eval
	br.Submit(state, &ev)
	if allocs := testing.AllocsPerRun(50, func() { br.Submit(state, &ev) }); allocs != 0 {
		t.Fatalf("warmed Submit allocates %.1f times, want 0", allocs)
	}
}

// The -race test: concurrent submitters against a syncer that alternates
// between two weight sets. Every batch is evaluated under one staged set,
// so every delivered result must bit-equal a direct Forward under one of
// the two, and every request must be evaluated exactly once.
func TestBrokerConcurrentSubmitSyncRace(t *testing.T) {
	reg := obs.NewRegistry()
	br := New(Config{Net: testNet(11), Batch: 4, Metrics: reg})
	defer br.Close()
	ref := testNet(11)
	wA := ref.GetWeights()
	stA := make([]float64, ref.NumStats())
	ref.CopyStatsInto(stA)
	wB, stB := perturbed(ref)

	pool := make([][]float64, 10)
	wantA := make([]*nn.Output, len(pool))
	wantB := make([]*nn.Output, len(pool))
	rng := rand.New(rand.NewSource(12))
	for i := range pool {
		pool[i] = randState(rng, 4)
		wantA[i] = forward1(ref, pool[i])
	}
	ref.SetWeights(wB)
	ref.SetStats(stB)
	for i := range pool {
		wantB[i] = forward1(ref, pool[i])
		if wantA[i].Value == wantB[i].Value {
			t.Fatalf("state %d has the same value under both weight sets", i)
		}
	}

	stop := make(chan struct{})
	var syncs sync.WaitGroup
	syncs.Add(1)
	go func() {
		defer syncs.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%2 == 0 {
				br.Sync(wB, stB)
			} else {
				br.Sync(wA, stA)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}()
	const workers = 8
	const perWorker = 150
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			var ev Eval
			for i := 0; i < perWorker; i++ {
				idx := r.Intn(len(pool))
				br.Submit(pool[idx], &ev)
				if !evalEquals(&ev, wantA[idx]) && !evalEquals(&ev, wantB[idx]) {
					errs <- "request " + strconv.Itoa(i) + " on state " + strconv.Itoa(idx) +
						" matches neither weight set"
					return
				}
			}
		}(int64(100 + w))
	}
	wg.Wait()
	close(stop)
	syncs.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}

	snap := reg.Snapshot()
	if got := snap.Counters["infer.requests"]; got != workers*perWorker {
		t.Fatalf("requests = %d, want %d", got, workers*perWorker)
	}
	if occ := snap.Histograms["infer.batch_occupancy"]; occ.Sum != workers*perWorker ||
		occ.Count != snap.Counters["infer.batches"] {
		t.Fatalf("occupancy %+v over %d batches, want %d requests evaluated",
			occ, snap.Counters["infer.batches"], workers*perWorker)
	}
}

// With tracing on, recordWaits reorders each batch by enqueue time, and
// submitters can reach the queue in the reverse of that order: each reads
// the clock before it sends. Requests queued in reverse enqueue order must
// each still get the evaluation of their own state.
func TestTracedBrokerDeliversOwnResults(t *testing.T) {
	br := New(Config{Net: testNet(13), Batch: 3, Trace: obs.NewTracer(256)})
	defer br.Close()
	ref := testNet(13)
	rng := rand.New(rand.NewSource(14))
	states := make([][]float64, 3)
	evs := make([]Eval, 3)
	now := time.Now()
	// Holding mu stalls the evaluation goroutine before its first forward,
	// so at least two of the requests share a batch.
	br.mu.Lock()
	for i := range evs {
		states[i] = randState(rng, 4)
		evs[i].done = make(chan struct{}, 1)
		br.reqCh <- request{state: states[i], ev: &evs[i], enq: now.Add(-time.Duration(i) * time.Second)}
	}
	br.mu.Unlock()
	for i := range evs {
		<-evs[i].done
		if !evalEquals(&evs[i], forward1(ref, states[i])) {
			t.Errorf("request %d got another request's evaluation", i)
		}
	}
}

// waitSpan keeps a batch's queue waits inside (lastPickup, pickup], ending
// 1 ns apart with the earliest-enqueued (longest) wait outermost, so they
// nest. make trace-smoke checks the exported track with cmd/tracecheck.
func TestWaitSpan(t *testing.T) {
	for _, tc := range []struct {
		name               string
		pickup, last, wait int64
		j                  int
		wantStart, wantEnd int64
	}{
		{"whole wait", 1000, 100, 300, 0, 700, 1000},
		{"later rank ends earlier", 1000, 100, 200, 2, 800, 998},
		{"clamped to previous pickup", 1000, 100, 5000, 0, 101, 1000},
		{"no room left", 1000, 998, 0, 3, 997, 997},
	} {
		start, end := waitSpan(tc.pickup, tc.last, tc.wait, tc.j)
		if start != tc.wantStart || end != tc.wantEnd {
			t.Errorf("%s: span [%d, %d], want [%d, %d]", tc.name, start, end, tc.wantStart, tc.wantEnd)
		}
	}
}
