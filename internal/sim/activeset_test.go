package sim

import (
	"math/rand"
	"sort"
	"testing"
)

// TestActiveSetSortedAndDeduped pins the two properties byte-identity
// rests on: membership is exact (duplicates collapse) and the list is
// always in ascending order, whatever the insertion order.
func TestActiveSetSortedAndDeduped(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(64)
		s := newActiveSet(n)
		want := map[int32]bool{}
		for k := 0; k < 3*n; k++ {
			v := rng.Intn(n)
			s.add(v)
			want[int32(v)] = true
		}
		if s.len() != len(want) {
			t.Fatalf("trial %d: len %d, want %d", trial, s.len(), len(want))
		}
		if !sort.SliceIsSorted(s.list, func(i, j int) bool { return s.list[i] < s.list[j] }) {
			t.Fatalf("trial %d: list not sorted: %v", trial, s.list)
		}
		for _, v := range s.list {
			if !want[v] {
				t.Fatalf("trial %d: phantom member %d", trial, v)
			}
			if !s.mark[v] {
				t.Fatalf("trial %d: member %d not marked", trial, v)
			}
		}
	}
}

// TestActiveSetClear checks clear resets both the list and every mark so
// the set is reusable without reallocation.
func TestActiveSetClear(t *testing.T) {
	s := newActiveSet(8)
	for _, v := range []int{5, 1, 7, 1, 3} {
		s.add(v)
	}
	base := &s.list[:1][0]
	s.clear()
	if s.len() != 0 {
		t.Fatalf("len %d after clear, want 0", s.len())
	}
	for i, m := range s.mark {
		if m {
			t.Fatalf("mark[%d] still set after clear", i)
		}
	}
	s.add(2)
	if &s.list[0] != base {
		t.Fatal("clear lost the preallocated backing array")
	}
}

// TestActiveSetAddNoAlloc pins the steady-state contract: adds into a
// preallocated set never touch the heap.
func TestActiveSetAddNoAlloc(t *testing.T) {
	s := newActiveSet(128)
	allocs := testing.AllocsPerRun(100, func() {
		s.clear()
		for v := 127; v >= 0; v-- {
			s.add(v)
		}
	})
	if allocs != 0 {
		t.Fatalf("add/clear allocates %.1f times, want 0", allocs)
	}
}

// clear empties the set, keeping its preallocated list and marks.
func (s *activeSet) clear() {
	for _, v := range s.list {
		s.mark[v] = false
	}
	s.list = s.list[:0]
}
