package mathx

import (
	"fmt"
	"math/rand"
)

// The standard math/rand source is an additive lagged-Fibonacci generator
// over a table of rngLen 64-bit words with lag rngTap:
//
//	x[n] = x[n-rngLen] + x[n-(rngLen-rngTap)]  (mod 2^64)
//
// Each draw both RETURNS the new word and STORES it back into the table,
// so the generator's entire state equals its last rngLen raw outputs plus
// the position of the table cursors — which advance by exactly one slot
// per draw. That is what makes direct state capture possible without
// touching the unexported stdlib internals: record the trailing rngLen
// outputs in a ring and the table can be rebuilt exactly (StateSnapshot /
// NewCountingSourceFromState).
const (
	rngLen = 607
	rngTap = 273
	// rngFeed is the feed cursor's initial index in a freshly seeded
	// standard source; the tap cursor starts at 0. Draw c (0-based)
	// decrements both cursors first, so it writes table index
	// (rngFeed-1-c) mod rngLen, and after C draws the cursors sit at
	// tap = -C mod rngLen, feed = (rngFeed-C) mod rngLen.
	rngFeed = rngLen - rngTap
	rngMask = 1<<63 - 1
)

// StateLen is the length of the slice returned by
// CountingSource.StateSnapshot: the standard generator's lag-table size.
const StateLen = rngLen

// CountingSource is a math/rand Source64 that wraps the standard source
// and counts how many times the generator has advanced. An RNG stream
// built on it becomes checkpointable: every draw a rand.Rand makes —
// Float64, NormFloat64, Shuffle, Intn, ... — reaches the source through
// Int63 or Uint64, and both step the generator exactly once, so the
// stream's state is the (seed, calls) pair plus — once the stream is at
// least StateLen draws old — the directly captured generator state
// (StateSnapshot), from which NewCountingSourceFromState rebuilds the
// stream in O(StateLen) regardless of how long it has run.
// NewCountingSourceAt restores from the (seed, calls) pair alone by
// replaying the stream. The wrapper forwards values unchanged, so a
// rand.Rand over a CountingSource is bit-identical to one over the bare
// standard source.
//
// CountingSource is not safe for concurrent use, matching the underlying
// standard source.
type CountingSource struct {
	src   rand.Source64
	calls uint64
	// ring records the last rngLen raw outputs; pos == calls mod rngLen
	// is the slot the next output lands in, so ring[pos] is currently the
	// oldest recorded output.
	ring [rngLen]uint64
	pos  int
}

// newStdSource seeds a fresh standard source.
func newStdSource(seed int64) rand.Source64 {
	src, ok := rand.NewSource(seed).(rand.Source64)
	if !ok {
		// The standard source has implemented Source64 since Go 1.8.
		panic("mathx: standard rand source does not implement Source64")
	}
	return src
}

// NewCountingSource returns a counting source seeded with seed, with the
// counter at zero.
func NewCountingSource(seed int64) *CountingSource {
	return &CountingSource{src: newStdSource(seed)}
}

// NewCountingSourceAt returns a counting source seeded with seed and
// fast-forwarded calls steps — the state described by a checkpoint's
// (seed, calls) pair alone. Replay costs a few nanoseconds per step, so
// restore time grows linearly with stream length; checkpoints that carry
// the captured generator state restore in constant time via
// NewCountingSourceFromState instead.
func NewCountingSourceAt(seed int64, calls uint64) *CountingSource {
	s := NewCountingSource(seed)
	for i := uint64(0); i < calls; i++ {
		s.next()
	}
	return s
}

// NewCountingSourceFromState restores a counting source directly from a
// captured generator state (StateSnapshot), in O(StateLen) work
// regardless of calls. An empty state falls back to replay
// (NewCountingSourceAt) — the cheap case, since StateSnapshot only
// returns empty for streams younger than StateLen draws. The restored
// source continues the stream bit-identically: the lag table, both
// cursors, and the output ring are rebuilt exactly as the snapshotted
// source had them.
func NewCountingSourceFromState(seed int64, calls uint64, state []uint64) (*CountingSource, error) {
	if len(state) == 0 {
		return NewCountingSourceAt(seed, calls), nil
	}
	if len(state) != rngLen {
		return nil, fmt.Errorf("mathx: RNG state has %d words, want %d", len(state), rngLen)
	}
	if calls < rngLen {
		return nil, fmt.Errorf("mathx: RNG state with only %d calls is impossible (a full state needs at least %d draws)", calls, rngLen)
	}
	l := &lfsrSource{
		tap:  int((rngLen - calls%rngLen) % rngLen),
		feed: ((rngFeed-int(calls%rngLen))%rngLen + rngLen) % rngLen,
	}
	s := &CountingSource{src: l, calls: calls, pos: int(calls % rngLen)}
	// state[i] is the output of draw calls-rngLen+i (oldest first); draw c
	// wrote table index (rngFeed-1-c) mod rngLen and ring slot c mod rngLen.
	for i, x := range state {
		c := calls - rngLen + uint64(i)
		idx := ((rngFeed-1-int(c%rngLen))%rngLen + rngLen) % rngLen
		l.vec[idx] = int64(x)
		s.ring[c%rngLen] = x
	}
	return s, nil
}

// next advances the generator once, recording the raw output in the ring.
func (s *CountingSource) next() uint64 {
	x := s.src.Uint64()
	s.ring[s.pos] = x
	s.pos++
	if s.pos == rngLen {
		s.pos = 0
	}
	s.calls++
	return x
}

// Int63 implements rand.Source. The standard source derives Int63 from
// the same single generator advance as Uint64 (the top bit masked off),
// so routing it through next keeps the stream bit-identical while the
// ring sees every raw word.
func (s *CountingSource) Int63() int64 {
	return int64(s.next() & rngMask)
}

// Uint64 implements rand.Source64.
func (s *CountingSource) Uint64() uint64 {
	return s.next()
}

// Seed reseeds with a fresh standard source and rewinds the counter, so
// the (seed, calls) pair keeps describing the state.
func (s *CountingSource) Seed(seed int64) {
	s.src = newStdSource(seed)
	s.calls = 0
	s.pos = 0
}

// Calls returns the number of generator advances consumed so far.
func (s *CountingSource) Calls() uint64 { return s.calls }

// StateSnapshot captures the generator state as the last StateLen raw
// outputs, oldest first — enough to rebuild the standard generator's
// entire lag table (see the package comment on the recurrence). It
// returns nil while the stream is younger than StateLen draws; there the
// (seed, calls) replay restore is just as fast. The returned slice is a
// copy.
func (s *CountingSource) StateSnapshot() []uint64 {
	if s.calls < rngLen {
		return nil
	}
	out := make([]uint64, rngLen)
	n := copy(out, s.ring[s.pos:])
	copy(out[n:], s.ring[:s.pos])
	return out
}

// String renders the state pair, for error messages.
func (s *CountingSource) String() string {
	return fmt.Sprintf("CountingSource(calls=%d)", s.calls)
}

// lfsrSource continues the standard generator's additive lagged-Fibonacci
// recurrence from a rebuilt lag table. It is the engine behind
// NewCountingSourceFromState, and behind a SeededSource once that stream
// reaches the draw where it materializes its table; both rebuild the
// table from stdlib-defined values, so seeding stays stdlib-defined.
type lfsrSource struct {
	vec       [rngLen]int64
	tap, feed int
}

// Uint64 reproduces the standard source's step exactly: decrement both
// cursors (wrapping), add the lagged words, store the sum back at the
// feed cursor, return it.
func (r *lfsrSource) Uint64() uint64 {
	r.tap--
	if r.tap < 0 {
		r.tap += rngLen
	}
	r.feed--
	if r.feed < 0 {
		r.feed += rngLen
	}
	x := r.vec[r.feed] + r.vec[r.tap]
	r.vec[r.feed] = x
	return uint64(x)
}

// Int63 matches the standard source's derivation from Uint64.
func (r *lfsrSource) Int63() int64 { return int64(r.Uint64() & rngMask) }

// Seed is unreachable: CountingSource.Seed and SeededSource.Seed replace
// the source wholesale.
func (r *lfsrSource) Seed(int64) {
	panic("mathx: reseeding a rebuilt lag table (the owning source's Seed replaces it)")
}
