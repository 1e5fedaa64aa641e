package traffic

import (
	"math"
	"math/rand"
	"testing"
)

func TestPatternStringRoundTrip(t *testing.T) {
	for _, p := range Patterns {
		got, err := ParsePattern(p.String())
		if err != nil || got != p {
			t.Errorf("round trip %v: got %v err %v", p, got, err)
		}
	}
	if _, err := ParsePattern("nonsense"); err == nil {
		t.Fatal("ParsePattern accepted junk")
	}
}

func TestDestInRange(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, p := range Patterns {
		for _, dims := range [][2]int{{4, 4}, {8, 8}, {10, 10}, {3, 5}} {
			n := dims[0] * dims[1]
			for src := 0; src < n; src++ {
				for k := 0; k < 3; k++ {
					d := Dest(p, src, dims[0], dims[1], rng)
					if d < 0 || d >= n {
						t.Fatalf("%v %dx%d src %d: dest %d out of range", p, dims[0], dims[1], src, d)
					}
				}
			}
		}
	}
}

func TestDestDeterministicPatterns(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, p := range Patterns {
		if p == UniformRandom {
			continue
		}
		for src := 0; src < 64; src++ {
			a := Dest(p, src, 8, 8, rng)
			b := Dest(p, src, 8, 8, rng)
			if a != b {
				t.Fatalf("%v not deterministic for src %d", p, src)
			}
		}
	}
}

func TestTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// Node (1,3) on 4x4 grid = id 7 -> (3,1) = id 13.
	if d := Dest(Transpose, 7, 4, 4, rng); d != 13 {
		t.Fatalf("transpose(7) = %d, want 13", d)
	}
	// Diagonal maps to itself.
	if d := Dest(Transpose, 5, 4, 4, rng); d != 5 {
		t.Fatalf("transpose(5) = %d, want 5", d)
	}
}

func TestBitComplement(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// 16 nodes -> 4 bits. complement(0b0001) = 0b1110 = 14.
	if d := Dest(BitComplement, 1, 4, 4, rng); d != 14 {
		t.Fatalf("bitcomp(1) = %d, want 14", d)
	}
	if d := Dest(BitComplement, 15, 4, 4, rng); d != 0 {
		t.Fatalf("bitcomp(15) = %d, want 0", d)
	}
}

func TestBitRotationAndShuffleInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// On a power-of-two network, shuffle(rotate(x)) == x.
	for src := 0; src < 64; src++ {
		r := Dest(BitRotation, src, 8, 8, rng)
		s := Dest(Shuffle, r, 8, 8, rng)
		if s != src {
			t.Fatalf("shuffle(rotate(%d)) = %d", src, s)
		}
	}
}

func TestTornadoOffset(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// 8x8: offset (8-1)/2 = 3 in each dimension. Node (0,0) -> (3,3).
	if d := Dest(Tornado, 0, 8, 8, rng); d != 3*8+3 {
		t.Fatalf("tornado(0) = %d, want 27", d)
	}
}

func TestFlits(t *testing.T) {
	// Paper: 128-bit links -> control 1 flit, data 5 flits.
	if Flits(Control, 128) != 1 || Flits(Data, 128) != 5 {
		t.Fatalf("128-bit: %d/%d", Flits(Control, 128), Flits(Data, 128))
	}
	// 256-bit links -> control 1 flit, data 3 flits.
	if Flits(Control, 256) != 1 || Flits(Data, 256) != 3 {
		t.Fatalf("256-bit: %d/%d", Flits(Control, 256), Flits(Data, 256))
	}
}

func TestInjectorRateMatchesOffered(t *testing.T) {
	rate := 0.2
	in := NewInjector(8, 8, UniformRandom, rate, 128, 42)
	cycles := 20000
	flits := 0
	for i := 0; i < cycles; i++ {
		for _, r := range in.Tick() {
			flits += r.NumFlits
		}
	}
	got := float64(flits) / float64(cycles) / 64
	// Self-addressed packets are skipped (1/64 of uniform), so expect
	// slightly under the offered rate.
	want := rate * 63 / 64
	if math.Abs(got-want)/want > 0.05 {
		t.Fatalf("offered %v, measured %v (want ≈%v)", rate, got, want)
	}
}

func TestInjectorDeterministicPerSeed(t *testing.T) {
	a := NewInjector(4, 4, UniformRandom, 0.1, 128, 7)
	b := NewInjector(4, 4, UniformRandom, 0.1, 128, 7)
	for i := 0; i < 100; i++ {
		ra, rb := a.Tick(), b.Tick()
		if len(ra) != len(rb) {
			t.Fatalf("cycle %d: %d vs %d requests", i, len(ra), len(rb))
		}
		for j := range ra {
			if ra[j] != rb[j] {
				t.Fatalf("cycle %d request %d differs", i, j)
			}
		}
	}
}

func TestInjectorSkipsSelf(t *testing.T) {
	in := NewInjector(8, 8, Transpose, 0.5, 128, 3)
	for i := 0; i < 2000; i++ {
		for _, r := range in.Tick() {
			if r.Src == r.Dst {
				t.Fatal("self-addressed packet emitted")
			}
		}
	}
}

// FuzzParsePattern feeds arbitrary names to the decoder nocsim -pattern
// uses. Every name String prints must round-trip to its pattern, and
// anything else must return an error.
func FuzzParsePattern(f *testing.F) {
	names := map[string]Pattern{}
	for _, p := range Patterns {
		names[p.String()] = p
		f.Add(p.String())
	}
	for _, s := range []string{"", "uniform", "Tornado", "tornado ", "pattern(6)", "pattern(0)"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		p, err := ParsePattern(s)
		want, known := names[s]
		switch {
		case known && (err != nil || p != want):
			t.Fatalf("ParsePattern(%q) = %v, %v; want %v", s, p, err, want)
		case !known && err == nil:
			t.Fatalf("ParsePattern(%q) accepted an unknown name as %v", s, p)
		}
	})
}
