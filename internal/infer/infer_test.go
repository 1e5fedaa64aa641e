package infer

import (
	"math"
	"math/rand"
	"reflect"
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

func assertEvalMatches(t *testing.T, tag string, ev *Eval, want *nn.Output) {
	t.Helper()
	for g := 0; g < 4; g++ {
		for i := range want.CoordProbs[g] {
			if ev.CoordProbs[g][i] != want.CoordProbs[g][i] {
				t.Fatalf("%s: prob group %d idx %d: got %v want %v",
					tag, g, i, ev.CoordProbs[g][i], want.CoordProbs[g][i])
			}
		}
	}
	if ev.DirPre != want.DirPre || ev.Dir != want.Dir || ev.Value != want.Value {
		t.Fatalf("%s: (dirpre,dir,value) got (%v,%v,%v) want (%v,%v,%v)",
			tag, ev.DirPre, ev.Dir, ev.Value, want.DirPre, want.Dir, want.Value)
	}
}

// Broker-delivered evaluations must be bit-identical to direct Forward
// calls on an identically-parameterized reference net — before and after a
// weight sync, and on cache hits.
func TestBrokerMatchesDirectForward(t *testing.T) {
	br := New(Config{Net: testNet(1), Batch: 4})
	defer br.Close()
	ref := testNet(1)
	rng := rand.New(rand.NewSource(2))
	states := make([][]float64, 6)
	for i := range states {
		states[i] = randState(rng, 4)
	}
	check := func(phase string) {
		for i, s := range states {
			ev := br.Submit("fp-"+phase+"-"+strconv.Itoa(i), s)
			assertEvalMatches(t, phase+" sample "+strconv.Itoa(i), ev, forward1(ref, s))
		}
	}
	check("init")

	// Sync new weights and perturbed BatchNorm stats; both nets must track.
	w := ref.GetWeights()
	for i := range w {
		w[i] += 0.01 * math.Sin(float64(i))
	}
	ref.SetWeights(w)
	st := make([]float64, ref.NumStats())
	ref.CopyStatsInto(st)
	for i := range st {
		st[i] += 0.1 * float64(i%3)
	}
	ref.SetStats(st)
	br.Sync(w, st)
	check("synced")

	// Resubmitting an already-cached fingerprint returns the same values.
	ev1 := br.Submit("dup", states[0])
	ev2 := br.Submit("dup", states[0])
	if ev1 != ev2 {
		t.Fatal("cache hit did not return the cached Eval")
	}
	if hitStats := br.Stats(); hitStats.Hits < 1 {
		t.Fatalf("expected at least one cache hit, stats %+v", hitStats)
	}
}

// The stale-cache satellite: a parameter-server sync bumps the generation
// and a post-sync lookup of a pre-sync fingerprint misses (and re-evaluates
// under the new weights).
func TestSyncBumpsGenerationAndInvalidatesCache(t *testing.T) {
	br := New(Config{Net: testNet(3), Batch: 2})
	defer br.Close()
	ref := testNet(3)
	rng := rand.New(rand.NewSource(4))
	state := randState(rng, 4)

	br.Submit("fp", state)
	br.Submit("fp", state)
	s0 := br.Stats()
	if s0.Hits != 1 || s0.Misses != 1 {
		t.Fatalf("pre-sync stats: %+v, want 1 hit / 1 miss", s0)
	}
	if br.Generation() != 0 {
		t.Fatalf("generation before sync = %d", br.Generation())
	}

	w := ref.GetWeights()
	for i := range w {
		w[i] *= 1.01
	}
	ref.SetWeights(w)
	br.Sync(w, nil)
	if br.Generation() != 1 {
		t.Fatalf("generation after sync = %d, want 1", br.Generation())
	}

	ev := br.Submit("fp", state)
	s1 := br.Stats()
	if s1.Misses != s0.Misses+1 {
		t.Fatalf("post-sync lookup hit a stale cache: stats %+v", s1)
	}
	if s1.Invalidations != 1 {
		t.Fatalf("invalidations = %d, want 1", s1.Invalidations)
	}
	assertEvalMatches(t, "post-sync", ev, forward1(ref, state))
}

// LRU eviction: with a tiny capacity, distinct fingerprints must evict.
func TestCacheEvictsLRU(t *testing.T) {
	br := New(Config{Net: testNet(5), Batch: 1, CacheSize: 16}) // 1 entry/shard
	defer br.Close()
	rng := rand.New(rand.NewSource(6))
	state := randState(rng, 4)
	for i := 0; i < 64; i++ {
		br.Submit("fp-"+strconv.Itoa(i), state)
	}
	if st := br.Stats(); st.Evictions == 0 {
		t.Fatalf("no evictions across 64 distinct fingerprints at capacity 16: %+v", st)
	}
}

// CacheSize < 0 disables caching entirely: identical resubmits re-evaluate,
// and each evaluation equals what a caching broker returns for the state,
// on its miss and on its hit.
func TestCacheDisabled(t *testing.T) {
	br := New(Config{Net: testNet(7), Batch: 1, CacheSize: -1})
	defer br.Close()
	cached := New(Config{Net: testNet(7), Batch: 1})
	defer cached.Close()
	rng := rand.New(rand.NewSource(8))
	state := randState(rng, 4)
	miss := cached.Submit("fp", state)
	hit := cached.Submit("fp", state)
	for i := 0; i < 2; i++ {
		got := br.Submit("fp", state)
		if !reflect.DeepEqual(got, miss) || !reflect.DeepEqual(got, hit) {
			t.Fatalf("uncached submit %d differs from the caching broker: got %+v, cached %+v", i, got, miss)
		}
	}
	if st := br.Stats(); st.Hits != 0 || st.Evaluated != 2 {
		t.Fatalf("disabled cache stats: %+v, want 0 hits / 2 evaluated", st)
	}
}

// The FlushWait path batches requests that arrive while the collector
// waits: four concurrent submitters of distinct fingerprints should land
// in far fewer than four batches.
func TestFlushWaitBatchesConcurrentRequests(t *testing.T) {
	br := New(Config{Net: testNet(9), Batch: 8, FlushWait: 100 * time.Millisecond})
	defer br.Close()
	rng := rand.New(rand.NewSource(10))
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		state := randState(rng, 4)
		fp := "fp-" + strconv.Itoa(i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			br.Submit(fp, state)
		}()
	}
	wg.Wait()
	st := br.Stats()
	if st.Evaluated != 4 {
		t.Fatalf("evaluated %d samples, want 4", st.Evaluated)
	}
	if st.Batches >= 4 {
		t.Fatalf("no batching happened: %d batches for 4 requests", st.Batches)
	}
}

// The -race satellite: concurrent submitters (mixing repeated and fresh
// fingerprints) against periodic weight syncs. Every delivered evaluation
// must be internally consistent and every request accounted for.
func TestBrokerConcurrentSubmitSyncRace(t *testing.T) {
	reg := obs.NewRegistry()
	br := New(Config{Net: testNet(11), Batch: 4, CacheSize: 32, Metrics: reg})
	defer br.Close()
	ref := testNet(11)
	baseW := ref.GetWeights()

	const workers = 8
	const perWorker = 150
	pool := make([][]float64, 10)
	rng := rand.New(rand.NewSource(12))
	for i := range pool {
		pool[i] = randState(rng, 4)
	}
	stop := make(chan struct{})
	var syncs sync.WaitGroup
	syncs.Add(1)
	go func() {
		defer syncs.Done()
		w := append([]float64(nil), baseW...)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			for j := range w {
				w[j] = baseW[j] * (1 + 0.001*float64(i%7))
			}
			br.Sync(w, nil)
			time.Sleep(time.Millisecond)
		}
	}()
	var wg sync.WaitGroup
	for t2 := 0; t2 < workers; t2++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < perWorker; i++ {
				idx := r.Intn(len(pool))
				ev := br.Submit("fp-"+strconv.Itoa(idx), pool[idx])
				if ev == nil {
					panic("nil eval")
				}
				sum := 0.0
				for _, p := range ev.CoordProbs[0] {
					sum += p
				}
				if math.Abs(sum-1) > 1e-9 {
					panic("coordinate probabilities do not sum to 1")
				}
			}
		}(int64(100 + t2))
	}
	wg.Wait()
	close(stop)
	syncs.Wait()

	st := br.Stats()
	if st.Requests != workers*perWorker {
		t.Fatalf("requests = %d, want %d", st.Requests, workers*perWorker)
	}
	if st.Hits+st.Misses != st.Requests {
		t.Fatalf("hits %d + misses %d != requests %d", st.Hits, st.Misses, st.Requests)
	}
	// The dedup layers (cache + coalescing) must have removed work: with 10
	// distinct states and 1200 requests, evaluations should be well below
	// the request count.
	if st.Evaluated >= st.Requests {
		t.Fatalf("no deduplication: %d evaluated for %d requests", st.Evaluated, st.Requests)
	}
}

// A submitter woken by its delivered flight may resubmit the fingerprint
// at once. The broker caches the result and retires the flight before
// waking anyone, so the resubmit is a cache hit; with caching disabled it
// is a fresh evaluation. It never joins the finished flight.
func TestResubmitAfterDeliveryNeverJoinsFinishedFlight(t *testing.T) {
	const rounds = 1000
	rng := rand.New(rand.NewSource(9))
	state := randState(rng, 4)
	for _, size := range []int{0, -1} {
		br := New(Config{Net: testNet(9), Batch: 1, CacheSize: size})
		for i := 0; i < rounds; i++ {
			fp := "fp-" + strconv.Itoa(i)
			br.Submit(fp, state)
			br.Submit(fp, state)
		}
		br.Close()
		st := br.Stats()
		wantHits, wantEval := int64(rounds), int64(rounds)
		if size < 0 {
			wantHits, wantEval = 0, 2*rounds
		}
		if st.Coalesced != 0 || st.Hits != wantHits || st.Evaluated != wantEval {
			t.Errorf("CacheSize %d: stats %+v, want 0 coalesced, %d hits, %d evaluated",
				size, st, wantHits, wantEval)
		}
	}
}
