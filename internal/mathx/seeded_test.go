package mathx

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// seededTestSeeds are the seeds the SeededSource tables run: the edges of
// the standard seed reduction (zero, ±1, multiples of 2^31−1, the seed
// that stands in for zero, the int64 extremes), random int64 seeds, and
// the SplitMix64 seeds the grid derives for its vehicles.
func seededTestSeeds() []int64 {
	seeds := []int64{
		0, 1, -1, 2, lehmerMod - 1, lehmerMod, lehmerMod + 1, -lehmerMod, 2 * lehmerMod, -7 * lehmerMod,
		lehmerZeroSeed, -lehmerZeroSeed, math.MinInt64, math.MaxInt64, math.MinInt64 + 1,
	}
	r := rand.New(rand.NewSource(99))
	for i := 0; i < 100; i++ {
		seeds = append(seeds, int64(r.Uint64()))
	}
	for id := uint64(0); id < 100; id++ {
		seeds = append(seeds, SplitMix64(20230710, id))
	}
	return seeds
}

// TestSeededSourceMatchesStdlib pins the source's contract: for every
// seed, its Uint64 and Int63 outputs equal rand.NewSource's bit for bit,
// through the table-free first 273 draws, the materialization, and the
// lag table's wrap at 607 draws, with the two draw kinds interleaved.
func TestSeededSourceMatchesStdlib(t *testing.T) {
	for _, seed := range seededTestSeeds() {
		want := newStdSource(seed)
		got := NewSeededSource(seed)
		for i := 0; i < 2500; i++ {
			if i%3 == 2 {
				if a, b := want.Int63(), got.Int63(); a != b {
					t.Fatalf("seed %d: Int63 draw %d = %d, want %d", seed, i, b, a)
				}
				continue
			}
			if a, b := want.Uint64(), got.Uint64(); a != b {
				t.Fatalf("seed %d: Uint64 draw %d = %d, want %d", seed, i, b, a)
			}
		}
	}
}

// TestSeededSourceReseed pins Seed called mid-stream — before, at, and
// after the draw that materializes the table — against the standard
// source's Seed at the same point.
func TestSeededSourceReseed(t *testing.T) {
	for _, at := range []int{0, 1, rngTap - 1, rngTap, rngTap + 1, rngLen, 1500} {
		want := newStdSource(5)
		got := NewSeededSource(5)
		for i := 0; i < at; i++ {
			want.Uint64()
			got.Uint64()
		}
		want.Seed(-123456789)
		got.Seed(-123456789)
		for i := 0; i < 2000; i++ {
			if a, b := want.Uint64(), got.Uint64(); a != b {
				t.Fatalf("reseeded after %d draws: draw %d = %d, want %d", at, i, b, a)
			}
		}
	}
}

// TestSeededSourceThroughRand compares the derived draws a rand.Rand
// makes — Float64, Intn (including the rejection loop of a non-power-of-
// two bound), and Perm — against a rand.Rand over the standard source.
func TestSeededSourceThroughRand(t *testing.T) {
	for _, seed := range []int64{0, 42, SplitMix64(7, 3), math.MinInt64} {
		want := rand.New(rand.NewSource(seed))
		got := rand.New(NewSeededSource(seed))
		for i := 0; i < 600; i++ {
			switch i % 3 {
			case 0:
				if a, b := want.Float64(), got.Float64(); math.Float64bits(a) != math.Float64bits(b) {
					t.Fatalf("seed %d round %d: Float64 %v, want %v", seed, i, b, a)
				}
			case 1:
				if a, b := want.Intn(1<<40+3), got.Intn(1<<40+3); a != b {
					t.Fatalf("seed %d round %d: Intn %d, want %d", seed, i, b, a)
				}
			case 2:
				pa, pb := want.Perm(9), got.Perm(9)
				for j := range pa {
					if pa[j] != pb[j] {
						t.Fatalf("seed %d round %d: Perm %v, want %v", seed, i, pb, pa)
					}
				}
			}
		}
	}
}

// TestSeededSourceAllocs pins the O(1) creation: one allocation to create
// a source, none per draw before the table is materialized.
func TestSeededSourceAllocs(t *testing.T) {
	seedTabs() // the shared tables are built once per process, not per source
	if n := testing.AllocsPerRun(100, func() { NewSeededSource(17) }); n != 1 {
		t.Errorf("NewSeededSource: %v allocs, want 1", n)
	}
	src := NewSeededSource(17)
	draws := 0
	if n := testing.AllocsPerRun(rngTap-2, func() {
		src.Uint64()
		draws++
	}); n != 0 {
		t.Errorf("draws before the table exists: %v allocs each, want 0", n)
	}
	if draws >= rngTap {
		t.Fatalf("the probe drew %d times, past the table-free prefix", draws)
	}
}

// TestSeededSourceConcurrentStreams creates and draws from sources on
// several goroutines at once, as the simulator's region shards do when
// vehicles take their first turns: the shared tables are built on first
// use by whichever goroutine gets there, then only read. Run it under
// -race (make race-shardsim) to check the sharing.
func TestSeededSourceConcurrentStreams(t *testing.T) {
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < 4; k++ {
				seed := SplitMix64(int64(w), uint64(k))
				want := newStdSource(seed)
				got := NewSeededSource(seed)
				for i := 0; i < rngLen+50; i++ {
					if a, b := want.Uint64(), got.Uint64(); a != b {
						t.Errorf("worker %d seed %d: draw %d = %d, want %d", w, seed, i, b, a)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// FuzzSeededSource compares n draws of a SeededSource with the standard
// source's for arbitrary seeds.
func FuzzSeededSource(f *testing.F) {
	f.Add(int64(0), uint16(10))
	f.Add(int64(-1), uint16(rngTap+1))
	f.Add(int64(lehmerMod), uint16(rngLen+1))
	f.Add(int64(math.MinInt64), uint16(2000))
	f.Fuzz(func(t *testing.T, seed int64, n uint16) {
		want := newStdSource(seed)
		got := NewSeededSource(seed)
		for i := 0; i < int(n%3000); i++ {
			if a, b := want.Uint64(), got.Uint64(); a != b {
				t.Fatalf("seed %d: draw %d = %d, want %d", seed, i, b, a)
			}
		}
	})
}
