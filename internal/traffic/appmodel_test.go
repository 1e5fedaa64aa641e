package traffic

import (
	"math"
	"testing"

	"routerless/internal/topo"
)

func TestParsecProfilesComplete(t *testing.T) {
	want := []string{"blackscholes", "bodytrack", "canneal", "facesim",
		"fluidanimate", "streamcluster", "swaptions"}
	ps := Parsec()
	if len(ps) != len(want) {
		t.Fatalf("profiles = %d, want %d", len(ps), len(want))
	}
	for i, name := range want {
		if ps[i].Name != name {
			t.Errorf("profile[%d] = %q, want %q", i, ps[i].Name, name)
		}
		p, err := ParsecProfile(name)
		if err != nil || p.Name != name {
			t.Errorf("ParsecProfile(%q): %v", name, err)
		}
	}
	if _, err := ParsecProfile("doom"); err == nil {
		t.Fatal("unknown profile accepted")
	}
}

func TestParsecProfilesSane(t *testing.T) {
	for _, p := range Parsec() {
		if p.Rate <= 0 || p.Rate > 0.1 {
			t.Errorf("%s: rate %v not light traffic", p.Name, p.Rate)
		}
		if p.Locality < 0 || p.Locality > 1 || p.Burstiness < 0 || p.Burstiness >= 1 {
			t.Errorf("%s: bad locality/burstiness", p.Name)
		}
		if p.BaseTimeMS <= 0 {
			t.Errorf("%s: base time %v", p.Name, p.BaseTimeMS)
		}
	}
}

func TestAppInjectorStationaryRate(t *testing.T) {
	p, _ := ParsecProfile("fluidanimate")
	in := NewAppInjector(p, 8, 8, 128, 11)
	cycles := 40000
	flits := 0
	for i := 0; i < cycles; i++ {
		for _, r := range in.Tick() {
			flits += r.NumFlits
		}
	}
	got := float64(flits) / float64(cycles) / 64
	if math.Abs(got-p.Rate)/p.Rate > 0.15 {
		t.Fatalf("stationary rate %v, want ≈%v", got, p.Rate)
	}
}

func TestAppInjectorLocality(t *testing.T) {
	p := AppProfile{Name: "local", Rate: 0.05, Locality: 1.0, LocalRadius: 1,
		DataFraction: 0.5, BaseTimeMS: 1}
	in := NewAppInjector(p, 8, 8, 128, 5)
	near, far := 0, 0
	for i := 0; i < 5000; i++ {
		for _, r := range in.Tick() {
			s := topo.NodeFromID(r.Src, 8)
			d := topo.NodeFromID(r.Dst, 8)
			dist := abs(s.Row-d.Row) + abs(s.Col-d.Col)
			if dist <= 1 {
				near++
			} else {
				far++
			}
		}
	}
	if near == 0 {
		t.Fatal("no packets generated")
	}
	// Rejection sampling can fall back to uniform, but local traffic
	// should dominate strongly.
	if float64(far) > 0.1*float64(near+far) {
		t.Fatalf("locality 1.0 but %d/%d packets went far", far, near+far)
	}
}

func TestAppInjectorValidRequests(t *testing.T) {
	for _, p := range Parsec() {
		in := NewAppInjector(p, 4, 4, 128, 1)
		for i := 0; i < 1000; i++ {
			for _, r := range in.Tick() {
				if r.Src == r.Dst {
					t.Fatalf("%s: self packet", p.Name)
				}
				if r.Src < 0 || r.Src >= 16 || r.Dst < 0 || r.Dst >= 16 {
					t.Fatalf("%s: out of range %v", p.Name, r)
				}
				if r.NumFlits != Flits(r.Class, 128) {
					t.Fatalf("%s: flit count mismatch", p.Name)
				}
			}
		}
	}
}

func TestExecutionTimeModel(t *testing.T) {
	p := AppProfile{BaseTimeMS: 10, Sensitivity: 0.1, Messages: 2}
	// Ideal network: no stretch.
	if got := p.ExecutionTimeMS(8, 8); got != 10 {
		t.Fatalf("ideal: %v", got)
	}
	// Double latency: stretch = 1 -> T = 10 * (1 + 0.2) = 12.
	if got := p.ExecutionTimeMS(16, 8); math.Abs(got-12) > 1e-9 {
		t.Fatalf("2x latency: %v, want 12", got)
	}
	// Latency below ideal clamps to no stretch.
	if got := p.ExecutionTimeMS(4, 8); got != 10 {
		t.Fatalf("below ideal: %v", got)
	}
	// Insensitive app ignores latency entirely.
	ins := AppProfile{BaseTimeMS: 11, Sensitivity: 0, Messages: 5}
	if got := ins.ExecutionTimeMS(100, 8); got != 11 {
		t.Fatalf("insensitive: %v", got)
	}
}

func TestExecutionTimeGuardsZeroIdeal(t *testing.T) {
	p := AppProfile{BaseTimeMS: 10, Sensitivity: 0.1, Messages: 1}
	got := p.ExecutionTimeMS(2, 0)
	if math.IsNaN(got) || math.IsInf(got, 0) {
		t.Fatalf("zero ideal latency produced %v", got)
	}
}

// FuzzParsecProfile feeds arbitrary names to the decoder nocsim -app uses.
// Every Parsec profile must be found by its name, and anything else must
// return an error.
func FuzzParsecProfile(f *testing.F) {
	names := map[string]AppProfile{}
	for _, p := range Parsec() {
		names[p.Name] = p
		f.Add(p.Name)
	}
	for _, s := range []string{"", "Canneal", "canneal ", "x264", "parsec"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		p, err := ParsecProfile(s)
		want, known := names[s]
		switch {
		case known && (err != nil || p != want):
			t.Fatalf("ParsecProfile(%q) = %+v, %v; want %+v", s, p, err, want)
		case !known && err == nil:
			t.Fatalf("ParsecProfile(%q) accepted an unknown name as %+v", s, p)
		}
	})
}
