package nn

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"
	"sort"
)

// This file implements the checkpoint encoding: compact, CRC-checked,
// and the only one the package writes (SaveBinary, AppendBinary,
// WriteFile) or reads (LoadCheckpoint). Floats are stored as their
// IEEE-754 bits, so every Checkpoint value round-trips bit for bit.
//
// Layout (all integers little-endian):
//
//	"vtck"                magic
//	uint16                format version (Checkpoint.Version)
//	sections              tagged, fixed order, optional ones omitted:
//	  'P' params          uvarint count, then per sorted name:
//	                      string, vec
//	  'O' optimizer       string algo, uvarint step, param-table m,
//	                      param-table v
//	  'R' rng             rngstate
//	  'E' envs (optional) uvarint count, then per env:
//	                      rngstate, f64 best, bool bestSet
//	  'M' meta            uvarint episodes, string fingerprint, string ppo
//	  'p' pricer          uvarint rows, uvarint width, rows×width f64,
//	      (optional)      vec obs, f64 best, bool bestSet,
//	                      uvarint rounds/updates/snapshots/updateEvery/
//	                      reward, f64 bestTolFrac
//	  'Z'                 end of sections
//	uint32                IEEE CRC-32 of everything above
//
// where string = uvarint length + bytes, vec = uvarint length + length
// f64 words, f64 = 8-byte Float64bits, u64 = 8 bytes, rngstate = u64
// seed-bits + u64 calls + uvarint state length + state u64 words, and a
// param-table repeats the 'P' section payload. The trailing checksum
// makes truncation and bit flips fail loudly; the decoder additionally
// rejects trailing bytes, unknown or out-of-order tags, and implausible
// lengths before allocating for them. Which sections a checkpoint must
// carry is Checkpoint.Validate's to say, on both sides.
const binaryMagic = "vtck"

// Decoder sanity caps: reject implausible lengths before allocating.
// They bound a hostile or corrupted header, not legitimate checkpoints —
// the largest real sections here are a few thousand floats. Counters and
// enum values are not lengths: they decode up to math.MaxInt, so the
// decoder reads back every value the encoder writes.
const (
	binMaxName  = 1 << 12 // parameter-name / string bytes
	binMaxVec   = 1 << 26 // float64 words per vector
	binMaxCount = 1 << 20 // table entries (params, envs, belief rows and width)
	binMaxInt   = math.MaxInt
)

// SaveBinary writes the checkpoint's encoding (see the format comment
// above) to w.
func (c *Checkpoint) SaveBinary(w io.Writer) error {
	data, err := c.AppendBinary(nil)
	if err != nil {
		return err
	}
	if _, err := w.Write(data); err != nil {
		return fmt.Errorf("nn: writing binary checkpoint: %w", err)
	}
	return nil
}

// AppendBinary appends the checkpoint's binary encoding — the bytes
// SaveBinary writes — to b and returns the extended slice (it implements
// encoding.BinaryAppender). It validates the checkpoint first and grows b
// once, by exactly the encoding's size, so a caller that hands the
// previous result back as b[:0] encodes on a cadence without allocating a
// buffer.
func (c *Checkpoint) AppendBinary(b []byte) ([]byte, error) {
	if err := c.Validate(); err != nil {
		return b, err
	}
	size := binWriter{sizing: true}
	size.sections(c)
	start := len(b)
	e := binWriter{b: slices.Grow(b, len(binaryMagic)+2+size.n+4)}
	e.b = append(e.b, binaryMagic...)
	e.b = binary.LittleEndian.AppendUint16(e.b, uint16(c.Version))
	e.sections(c)
	return binary.LittleEndian.AppendUint32(e.b, crc32.ChecksumIEEE(e.b[start:])), nil
}

// sections writes every section of c, in the format's fixed order, from
// the 'P' tag through the 'Z' terminator. c has validated, so the
// required sections are present.
func (e *binWriter) sections(c *Checkpoint) {
	e.tag('P')
	e.paramTable(c.Params)
	e.tag('O')
	e.str(c.Opt.Algo)
	e.uvarint(uint64(c.Opt.Step))
	e.paramTable(c.Opt.M)
	e.paramTable(c.Opt.V)
	e.tag('R')
	e.rngState(c.RNG)
	if len(c.Envs) > 0 {
		e.tag('E')
		e.uvarint(uint64(len(c.Envs)))
		for i := range c.Envs {
			es := &c.Envs[i]
			e.rngState(&es.RNG)
			e.f64(es.Best)
			e.bool(es.BestSet)
		}
	}
	e.tag('M')
	e.uvarint(uint64(c.Meta.Episodes))
	e.str(c.Meta.Fingerprint)
	e.str(c.Meta.PPO)
	if c.Pricer != nil {
		p := c.Pricer
		e.tag('p')
		e.uvarint(uint64(len(p.History)))
		e.uvarint(uint64(len(p.History[0])))
		for _, row := range p.History {
			for _, x := range row {
				e.f64(x)
			}
		}
		e.vec(p.Obs)
		e.f64(p.Best)
		e.bool(p.BestSet)
		e.uvarint(uint64(p.Rounds))
		e.uvarint(uint64(p.Updates))
		e.uvarint(uint64(p.Snapshots))
		e.uvarint(uint64(p.UpdateEvery))
		e.uvarint(uint64(p.Reward))
		e.f64(p.BestTolFrac)
	}
	e.tag('Z')
}

// LoadCheckpoint decodes a checkpoint from its binary encoding, the whole
// file in data, and validates it (Checkpoint.Validate). Input without the
// binary magic — a JSON checkpoint, say — truncation, trailing garbage,
// any bit flip (checksummed), unknown or out-of-order sections, and
// implausible lengths are all rejected with a descriptive error, so a
// hand-edited or corrupted file fails loudly instead of training on
// garbage. The returned checkpoint does not alias data.
func LoadCheckpoint(data []byte) (*Checkpoint, error) {
	if !bytes.HasPrefix(data, []byte(binaryMagic)) {
		return nil, fmt.Errorf("nn: not a binary checkpoint: it does not start with the %q magic (checkpoints are read and written in the binary encoding only)", binaryMagic)
	}
	// magic + version + 'P' tag + empty table + 'Z' + checksum is the
	// structural minimum.
	if len(data) < len(binaryMagic)+2+1+1+1+4 {
		return nil, fmt.Errorf("nn: binary checkpoint truncated (%d bytes)", len(data))
	}
	body, trailer := data[:len(data)-4], data[len(data)-4:]
	if got, want := crc32.ChecksumIEEE(body), binary.LittleEndian.Uint32(trailer); got != want {
		return nil, fmt.Errorf("nn: binary checkpoint checksum mismatch (file %08x, computed %08x) — truncated or corrupted", want, got)
	}

	d := &binReader{data: body, pos: len(binaryMagic)}
	c := &Checkpoint{Version: int(binary.LittleEndian.Uint16(body[len(binaryMagic):]))}
	d.pos += 2

	if tag := d.tag(); tag != 'P' {
		return nil, d.fail("want params section 'P', got %q", tag)
	}
	c.Params = d.paramTable()
	tag := d.tag()
	if tag == 'O' {
		c.Opt = &OptState{Algo: d.str(), Step: int(d.uvarint(binMaxInt))}
		c.Opt.M = d.paramTable()
		c.Opt.V = d.paramTable()
		tag = d.tag()
	}
	if tag == 'R' {
		c.RNG = d.rngState()
		tag = d.tag()
	}
	if tag == 'E' {
		n := int(d.uvarint(binMaxCount))
		if d.err == nil {
			c.Envs = make([]EnvState, n)
			for i := range c.Envs {
				rng := d.rngState()
				if rng != nil {
					c.Envs[i].RNG = *rng
				}
				c.Envs[i].Best = d.f64()
				c.Envs[i].BestSet = d.bool()
			}
		}
		tag = d.tag()
	}
	if tag == 'M' {
		c.Meta = &TrainMeta{Episodes: int(d.uvarint(binMaxInt)), Fingerprint: d.str(), PPO: d.str()}
		tag = d.tag()
	}
	if tag == 'p' {
		p := &PricerState{}
		rows := int(d.uvarint(binMaxCount))
		width := int(d.uvarint(binMaxCount))
		if d.err == nil && rows*width > binMaxVec {
			d.fail("pricer window %d×%d implausibly large", rows, width)
		}
		if d.err == nil {
			p.History = make([][]float64, rows)
			flat := make([]float64, rows*width)
			for i := range p.History {
				p.History[i] = flat[i*width : (i+1)*width]
				for j := range p.History[i] {
					p.History[i][j] = d.f64()
				}
			}
		}
		p.Obs = d.vec()
		p.Best = d.f64()
		p.BestSet = d.bool()
		p.Rounds = int(d.uvarint(binMaxInt))
		p.Updates = int(d.uvarint(binMaxInt))
		p.Snapshots = int(d.uvarint(binMaxInt))
		p.UpdateEvery = int(d.uvarint(binMaxInt))
		p.Reward = int(d.uvarint(binMaxInt))
		p.BestTolFrac = d.f64()
		c.Pricer = p
		tag = d.tag()
	}
	if d.err == nil && tag != 'Z' {
		d.fail("unknown or out-of-order section %q", tag)
	}
	if d.err == nil && d.pos != len(d.data) {
		d.fail("%d trailing bytes after end of sections", len(d.data)-d.pos)
	}
	if d.err != nil {
		return nil, d.err
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}

// binWriter appends the format's primitives to b. A sizing writer
// appends nothing: it only adds each primitive's length to n, which is
// how AppendBinary sizes its buffer with one walk over the sections.
type binWriter struct {
	b      []byte
	sizing bool
	n      int
}

func (e *binWriter) tag(t byte) {
	if e.sizing {
		e.n++
		return
	}
	e.b = append(e.b, t)
}

func (e *binWriter) uvarint(v uint64) {
	if e.sizing {
		e.n++
		for ; v >= 0x80; v >>= 7 {
			e.n++
		}
		return
	}
	e.b = binary.AppendUvarint(e.b, v)
}

func (e *binWriter) u64(v uint64) {
	if e.sizing {
		e.n += 8
		return
	}
	e.b = binary.LittleEndian.AppendUint64(e.b, v)
}

func (e *binWriter) f64(v float64) { e.u64(math.Float64bits(v)) }

func (e *binWriter) bool(v bool) {
	if v {
		e.tag(1)
	} else {
		e.tag(0)
	}
}

func (e *binWriter) str(s string) {
	e.uvarint(uint64(len(s)))
	if e.sizing {
		e.n += len(s)
		return
	}
	e.b = append(e.b, s...)
}

// vec writes the words of v in place after one length check, the
// encoder's hot loop: a checkpoint is almost entirely float vectors.
func (e *binWriter) vec(v []float64) {
	e.uvarint(uint64(len(v)))
	if e.sizing {
		e.n += 8 * len(v)
		return
	}
	at := len(e.b)
	e.b = slices.Grow(e.b, 8*len(v))[:at+8*len(v)]
	for i, x := range v {
		binary.LittleEndian.PutUint64(e.b[at+8*i:], math.Float64bits(x))
	}
}

// paramTable writes a name→vector table sorted by name, so the encoding
// of a checkpoint is deterministic.
func (e *binWriter) paramTable(m map[string][]float64) {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	e.uvarint(uint64(len(names)))
	for _, name := range names {
		e.str(name)
		e.vec(m[name])
	}
}

func (e *binWriter) rngState(r *RNGState) {
	e.u64(uint64(r.Seed))
	e.u64(r.Calls)
	e.uvarint(uint64(len(r.State)))
	for _, x := range r.State {
		e.u64(x)
	}
}

// binReader is a cursor over the checksummed body. The first failure
// sticks: every later read returns zero values and the original error
// surfaces once at the end, keeping the section parsing linear.
type binReader struct {
	data []byte
	pos  int
	err  error
}

func (d *binReader) fail(format string, args ...any) error {
	if d.err == nil {
		d.err = fmt.Errorf("nn: binary checkpoint at byte %d: %s", d.pos, fmt.Sprintf(format, args...))
	}
	return d.err
}

func (d *binReader) tag() byte {
	if d.err != nil || d.pos >= len(d.data) {
		d.fail("truncated section tag")
		return 0
	}
	t := d.data[d.pos]
	d.pos++
	return t
}

func (d *binReader) uvarint(max uint64) uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.data[d.pos:])
	if n <= 0 {
		d.fail("truncated varint")
		return 0
	}
	d.pos += n
	if v > max {
		d.fail("value %d exceeds the format cap %d", v, max)
		return 0
	}
	return v
}

func (d *binReader) u64() uint64 {
	if d.err != nil {
		return 0
	}
	if d.pos+8 > len(d.data) {
		d.fail("truncated 64-bit word")
		return 0
	}
	v := binary.LittleEndian.Uint64(d.data[d.pos:])
	d.pos += 8
	return v
}

func (d *binReader) f64() float64 { return math.Float64frombits(d.u64()) }

func (d *binReader) bool() bool {
	if d.err != nil || d.pos >= len(d.data) {
		d.fail("truncated bool")
		return false
	}
	b := d.data[d.pos]
	d.pos++
	if b > 1 {
		d.fail("bool byte %d", b)
		return false
	}
	return b == 1
}

func (d *binReader) str() string {
	n := int(d.uvarint(binMaxName))
	if d.err != nil {
		return ""
	}
	if d.pos+n > len(d.data) {
		d.fail("truncated %d-byte string", n)
		return ""
	}
	s := string(d.data[d.pos : d.pos+n])
	d.pos += n
	return s
}

func (d *binReader) vec() []float64 {
	n := int(d.uvarint(binMaxVec))
	if d.err != nil {
		return nil
	}
	if d.pos+8*n > len(d.data) {
		d.fail("truncated %d-word vector", n)
		return nil
	}
	v := make([]float64, n)
	for i := range v {
		v[i] = d.f64()
	}
	return v
}

func (d *binReader) paramTable() map[string][]float64 {
	n := int(d.uvarint(binMaxCount))
	if d.err != nil {
		return nil
	}
	m := make(map[string][]float64, n)
	for i := 0; i < n; i++ {
		name := d.str()
		vec := d.vec()
		if d.err != nil {
			return nil
		}
		if _, dup := m[name]; dup {
			d.fail("duplicate table entry %q", name)
			return nil
		}
		m[name] = vec
	}
	return m
}

func (d *binReader) rngState() *RNGState {
	r := &RNGState{Seed: int64(d.u64()), Calls: d.u64()}
	n := int(d.uvarint(binMaxVec))
	if d.err != nil {
		return nil
	}
	if n > 0 {
		if d.pos+8*n > len(d.data) {
			d.fail("truncated %d-word RNG state", n)
			return nil
		}
		r.State = make([]uint64, n)
		for i := range r.State {
			r.State[i] = d.u64()
		}
	}
	return r
}
