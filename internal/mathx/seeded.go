package mathx

import "sync"

// The standard source's Seed reduces the seed to a Lehmer state x0 in
// [1, 2^31-2] and steps x ← 48271·x mod (2^31−1): it discards lehmerSkip
// steps, then folds three consecutive values into each lag-table word
// and XORs in a fixed per-word mask (the stdlib's rngCooked):
//
//	vec[i] = x0·A^(21+3i) << 40  ^  x0·A^(22+3i) << 20  ^  x0·A^(23+3i)  ^  mask[i]
//
// with every power reduced mod 2^31−1 before the shift. Word i therefore
// depends on x0 alone, and with the powers tabulated once any word costs
// three multiply-mods. A fresh source's draw c < rngTap reads feed slot
// rngFeed-1-c and tap slot rngLen-1-c, neither of which an earlier draw
// has overwritten, so the first rngTap draws need no table at all.
const (
	lehmerA    = 48271
	lehmerMod  = 1<<31 - 1
	lehmerSkip = 20
	// lehmerZeroSeed replaces a seed that reduces to zero, as in the
	// standard Seed.
	lehmerZeroSeed = 89482311
)

// seedTables are the seed-independent parts of the standard seeding:
// pow[i][j] = A^(lehmerSkip+1+3i+j) mod (2^31−1), the powers word i folds,
// and mask, the standard source's per-word seeding mask.
type seedTables struct {
	pow  [rngLen][3]uint32
	mask [rngLen]int64
}

// seedTabs builds the tables once, on first use, and shares them
// read-only with every SeededSource on every goroutine.
var seedTabs = sync.OnceValue(buildSeedTables)

// buildSeedTables tabulates the powers and recovers the mask from the
// standard library itself rather than from a copy of it: the first rngLen
// outputs of rand.NewSource(1) pin down its seeded table exactly, and
// XORing out seed 1's fold leaves the mask. A change to Go's mask would
// then change this source with it instead of silently diverging.
func buildSeedTables() *seedTables {
	t := new(seedTables)
	x := uint64(1)
	for k := 0; k < lehmerSkip+3*rngLen; k++ {
		x = x * lehmerA % lehmerMod
		if j := k - lehmerSkip; j >= 0 {
			t.pow[j/3][j%3] = uint32(x)
		}
	}

	src := newStdSource(1)
	var out [rngLen]uint64
	for c := range out {
		out[c] = src.Uint64()
	}
	var vec [rngLen]int64
	// Draw c ≥ rngTap reads a feed slot no draw has written yet (words
	// 0..rngFeed-rngTap-1 and rngFeed..rngLen-1) plus the tap slot draw
	// c-rngTap stored its output in.
	for c := rngTap; c < rngLen; c++ {
		vec[(rngFeed-1-c+rngLen)%rngLen] = int64(out[c] - out[c-rngTap])
	}
	// Draw c < rngTap reads two seeded words, the tap one now known.
	for c := 0; c < rngTap; c++ {
		vec[rngFeed-1-c] = int64(out[c]) - vec[rngLen-1-c]
	}
	for i := range vec {
		t.mask[i] = vec[i] ^ t.fold(1, i)
	}
	return t
}

// fold is word i of the seeded table before the mask, for Lehmer state x0.
func (t *seedTables) fold(x0 uint64, i int) int64 {
	p := &t.pow[i]
	u := int64(x0*uint64(p[0])%lehmerMod) << 40
	u ^= int64(x0*uint64(p[1])%lehmerMod) << 20
	return u ^ int64(x0*uint64(p[2])%lehmerMod)
}

// word is word i of the standard source's table right after Seed.
func (t *seedTables) word(x0 uint64, i int) int64 {
	return t.fold(x0, i) ^ t.mask[i]
}

// SeededSource is a math/rand Source64 whose stream is bit-identical to
// rand.NewSource(seed)'s — Int63 and Uint64, and so every rand.Rand draw
// built on them — but which costs O(1) to create. The standard source
// runs 1,841 dependent Lehmer steps and fills a 607-word lag table on
// every seed; this one stores the seed and computes each of the first 273
// draws from the two seeded words it reads. Only a stream that reaches
// draw 273 pays for its table: it is filled then, the 273 stores are
// replayed into it, and the stream continues in the standard recurrence.
//
// SeededSource suits many short-lived streams, such as one per simulated
// vehicle. It is not safe for concurrent use, matching the standard
// source; distinct SeededSources may be created and drawn from on any
// number of goroutines.
type SeededSource struct {
	t  *seedTables
	x0 uint64 // the reduced Lehmer seed
	n  int    // draws made while tab is nil
	// tab is the materialized lag table, nil until draw rngTap.
	tab *lfsrSource
}

// NewSeededSource returns a source producing exactly the stream of
// rand.NewSource(seed).
func NewSeededSource(seed int64) *SeededSource {
	s := &SeededSource{t: seedTabs()}
	s.Seed(seed)
	return s
}

// Seed restarts the stream as rand.NewSource(seed) would, in O(1).
func (s *SeededSource) Seed(seed int64) {
	seed %= lehmerMod
	if seed < 0 {
		seed += lehmerMod
	}
	if seed == 0 {
		seed = lehmerZeroSeed
	}
	s.x0, s.n, s.tab = uint64(seed), 0, nil
}

// Uint64 implements rand.Source64.
func (s *SeededSource) Uint64() uint64 {
	if s.tab == nil {
		if c := s.n; c < rngTap {
			s.n++
			return uint64(s.t.word(s.x0, rngFeed-1-c) + s.t.word(s.x0, rngLen-1-c))
		}
		s.materialize()
	}
	return s.tab.Uint64()
}

// Int63 implements rand.Source with the standard derivation from Uint64.
func (s *SeededSource) Int63() int64 { return int64(s.Uint64() & rngMask) }

// materialize builds the lag table as it stands after rngTap draws: the
// seeded words, with draw c's sum stored at feed slot rngFeed-1-c, and
// both cursors moved back rngTap slots.
func (s *SeededSource) materialize() {
	l := &lfsrSource{tap: rngLen - rngTap, feed: rngFeed - rngTap}
	for i := range l.vec {
		l.vec[i] = s.t.word(s.x0, i)
	}
	for c := 0; c < rngTap; c++ {
		l.vec[rngFeed-1-c] += l.vec[rngLen-1-c]
	}
	s.tab = l
}
