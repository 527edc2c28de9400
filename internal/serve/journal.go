package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
)

// Journal file layout: JSON Lines. The first line is the header binding
// the journal to one checkpoint file (by snapshot ordinal and CRC-32 of
// the checkpoint bytes) and to the server's reference game; every
// following line is one intake entry, in exactly the order the intake
// goroutine applied it. Rebuilding the bound checkpoint and re-applying
// the entries in order therefore reconstructs the serving state bit for
// bit (determinism contract rule 5 at the process boundary).
const (
	journalMagic   = "vtmig-serve"
	journalVersion = 1
	journalName    = "journal.jsonl"
)

// journalHeader is the first line of a journal file. It pins everything a
// replay needs to be exact: which checkpoint the entries extend
// (Snapshots ordinal + the checkpoint's body CRC-32, see checkpointCRC),
// the pricer counters at that checkpoint (cross-checked against the
// checkpoint's own pricer section), and a fingerprint of the reference
// game the quotes were priced against.
type journalHeader struct {
	Magic         string `json:"journal"`
	Version       int    `json:"version"`
	Snapshots     int    `json:"snapshots"`
	Rounds        int    `json:"rounds"`
	Updates       int    `json:"updates"`
	CheckpointCRC uint32 `json:"checkpoint_crc"`
	Game          string `json:"game"`
}

// journalEntry is one intake record: the quote request, tagged with its
// 1-based sequence number since the bound checkpoint. Requests are pure
// data — rebuilding the round's game from one is deterministic — so the
// entry alone replays the round exactly.
type journalEntry struct {
	Seq int          `json:"seq"`
	Req QuoteRequest `json:"req"`
}

// appendEntry appends the journal line of entry (seq, req), where req is
// the request's JSON encoding: exactly json.Marshal(journalEntry{seq,
// req}) plus a newline.
func appendEntry(dst []byte, seq int, req []byte) []byte {
	dst = append(dst, `{"seq":`...)
	dst = strconv.AppendInt(dst, int64(seq), 10)
	dst = append(dst, `,"req":`...)
	dst = append(dst, req...)
	return append(dst, "}\n"...)
}

// AppendJSON appends r's JSON encoding to dst and returns the extended
// slice: exactly json.Marshal(r)'s bytes, written by hand instead of
// through reflection, so the journal stages an entry without
// allocating. The fields follow the struct's order, DistanceM and
// AvailableMHz are omitted at ±0 (omitempty), nil VMUs encode as null,
// and floats take encoding/json's form (see appendJSONFloat).
// FuzzJournalEntryEncoding compares the two byte for byte, and
// TestJournalEncoderCoversEveryField fails when either struct gains a
// field this does not write. A NaN or an infinity anywhere returns
// json.Marshal's error and dst as it was.
func (r QuoteRequest) AppendJSON(dst []byte) ([]byte, error) {
	var err error
	b := append(dst, `{"vmus":`...)
	if r.VMUs == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, v := range r.VMUs {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"id":`...)
			b = strconv.AppendInt(b, int64(v.ID), 10)
			b = append(b, `,"alpha":`...)
			if b, err = appendJSONFloat(b, v.Alpha); err != nil {
				return dst, err
			}
			b = append(b, `,"data_mb":`...)
			if b, err = appendJSONFloat(b, v.DataMB); err != nil {
				return dst, err
			}
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	if r.DistanceM != 0 {
		b = append(b, `,"distance_m":`...)
		if b, err = appendJSONFloat(b, r.DistanceM); err != nil {
			return dst, err
		}
	}
	if r.AvailableMHz != 0 {
		b = append(b, `,"available_mhz":`...)
		if b, err = appendJSONFloat(b, r.AvailableMHz); err != nil {
			return dst, err
		}
	}
	return append(b, '}'), nil
}

// appendJSONFloat appends f as encoding/json writes a float64: the
// shortest decimal that round-trips, in 'e' form below 1e-6 or from
// 1e21 in magnitude (zero excluded) and 'f' form otherwise, with a
// two-digit negative exponent shortened (e-07 → e-7).
func appendJSONFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return dst, &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst, nil
}

// journalWriter stages entries in memory and flushes them to the live
// journal in one write per batch. The durability invariant is
// "acknowledged ⇒ durable", not "staged ⇒ durable": the intake layer
// flushes before any quote in a batch is acknowledged, so a crash can
// only ever lose staged entries whose quotes were never answered —
// exactly the state a serial, unbuffered writer would leave. Batching
// the appends this way coalesces a batch's write-ahead records into one
// syscall without changing a single on-disk byte relative to writing
// them one at a time. The writer also keeps every entry's encoded request
// since its header, which a journal switch carries into the next journal
// (see carry). It is owned by the intake goroutine and needs no locking.
type journalWriter struct {
	f       *os.File
	path    string
	buf     []byte // staged entry lines, not yet written
	reqs    []byte // every entry's encoded request since the header
	ends    []int  // ends[i]: where entry i+1's request ends in reqs
	flushed int    // entries written to the file
	failed  bool
}

// prepareJournal creates a journal file at path holding only the header
// h, synced, and returns it open for appending. On error nothing is left
// at path.
func prepareJournal(path string, h journalHeader) (*os.File, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("serve: creating journal: %w", err)
	}
	line, err := json.Marshal(h)
	if err == nil {
		_, err = f.Write(append(line, '\n'))
	}
	if err != nil {
		discardJournal(f, path)
		return nil, fmt.Errorf("serve: writing journal header: %w", err)
	}
	if err := f.Sync(); err != nil {
		discardJournal(f, path)
		return nil, fmt.Errorf("serve: syncing journal header: %w", err)
	}
	return f, nil
}

// discardJournal closes and removes a prepared journal file that will
// never be committed; f may be nil.
func discardJournal(f *os.File, path string) {
	if f != nil {
		f.Close()
		os.Remove(path)
	}
}

// newJournal atomically creates a journal at path containing only the
// header (temp file + rename, synced), and returns a writer appending to
// it. A crash mid-creation leaves either the old journal or the new one,
// never a torn header.
func newJournal(path string, h journalHeader) (*journalWriter, error) {
	tmp := path + ".tmp"
	f, err := prepareJournal(tmp, h)
	if err != nil {
		return nil, err
	}
	if err := os.Rename(tmp, path); err != nil {
		discardJournal(f, tmp)
		return nil, fmt.Errorf("serve: committing journal: %w", err)
	}
	return &journalWriter{f: f, path: path}, nil
}

// stage encodes one request as the next entry into the in-memory batch
// buffer. Nothing touches the file, so a failed stage never corrupts the
// journal; the entry becomes durable at the next flush (or a journal
// switch before then — see carry).
func (w *journalWriter) stage(req QuoteRequest) error {
	if w.failed {
		return fmt.Errorf("serve: journal writer failed earlier; refusing further appends (restart the server to recover)")
	}
	seq := len(w.ends) + 1
	start := len(w.reqs)
	reqs, err := req.AppendJSON(w.reqs)
	if err != nil {
		return fmt.Errorf("serve: encoding journal entry %d: %w", seq, err)
	}
	w.reqs = reqs
	w.ends = append(w.ends, len(w.reqs))
	w.buf = appendEntry(w.buf, seq, w.reqs[start:])
	return nil
}

// flush writes every staged entry to the file in one syscall. The first
// failed flush marks the writer broken for good: a partial line may now
// sit mid-file, and writing past it would corrupt the journal beyond the
// torn-trailing-line case recovery knows how to handle.
func (w *journalWriter) flush() error {
	staged := len(w.ends) - w.flushed
	if staged == 0 {
		return nil
	}
	if w.failed {
		return fmt.Errorf("serve: journal writer failed earlier; refusing further appends (restart the server to recover)")
	}
	if _, err := w.f.Write(w.buf); err != nil {
		w.failed = true
		return fmt.Errorf("serve: flushing %d staged journal entries: %w", staged, err)
	}
	w.flushed = len(w.ends)
	w.buf = w.buf[:0]
	return nil
}

// count returns how many entries the journal holds, flushed and staged.
func (w *journalWriter) count() int { return len(w.ends) }

// carry switches to a new journal: it writes the entries past the first
// cut — flushed or still staged — renumbered from seq 1 into next, a
// prepared journal file at nextPath holding only its header, and renames
// that over w's path, returning the writer for the new journal. Entries
// up to cut are dropped: the checkpoint next's header binds covers them.
// The carried entries are written, so the new journal needs no flush for
// them, and the bytes match what a writer created at that checkpoint
// would hold after staging and flushing the same rounds. It returns the
// old journal's file still open, and the caller owns it. On error w
// stays the live journal, unchanged, and the caller discards next.
func (w *journalWriter) carry(next *os.File, nextPath string, cut int) (*journalWriter, *os.File, error) {
	if w.failed {
		return nil, nil, fmt.Errorf("serve: journal writer failed earlier; refusing the journal switch")
	}
	nw := &journalWriter{f: next, path: w.path}
	start := 0
	if cut > 0 {
		start = w.ends[cut-1]
	}
	for _, end := range w.ends[cut:] {
		req := w.reqs[start:end]
		nw.reqs = append(nw.reqs, req...)
		nw.ends = append(nw.ends, len(nw.reqs))
		nw.buf = appendEntry(nw.buf, len(nw.ends), req)
		start = end
	}
	if err := nw.flush(); err != nil {
		return nil, nil, err
	}
	if err := os.Rename(nextPath, w.path); err != nil {
		return nil, nil, fmt.Errorf("serve: committing journal: %w", err)
	}
	return nw, w.f, nil
}

// Close flushes staged entries and releases the file handle, syncing as
// a courtesy for a clean shutdown.
func (w *journalWriter) Close() error {
	if w.f == nil {
		return nil
	}
	err := w.flush()
	if serr := w.f.Sync(); err == nil {
		err = serr
	}
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.f = nil
	return err
}

// readJournal parses a journal file into its header and ordered entries.
// Every flush and journal switch writes whole lines before any quote of
// theirs is acknowledged, so only a final entry line that lacks its
// newline can be a torn append — the partial record of a write cut off
// by a crash. It is dropped and counted: its quote was never
// acknowledged, so dropping it reconstructs exactly the state every
// answered quote saw. Every other irregularity (missing or malformed
// header, a malformed or out-of-order entry line that ends in its
// newline, the last one included) refuses loudly, naming the line,
// instead of guessing.
func readJournal(path string) (journalHeader, []journalEntry, int, error) {
	var h journalHeader
	data, err := os.ReadFile(path)
	if err != nil {
		return h, nil, 0, fmt.Errorf("serve: reading journal: %w", err)
	}
	if len(data) == 0 {
		return h, nil, 0, fmt.Errorf("serve: journal %s is empty — not even a header; the state directory is corrupt", path)
	}
	lines := bytes.Split(data, []byte("\n"))
	// A well-formed journal ends in a newline, so the final split element
	// is empty; an entry line there was cut off before its newline.
	torn := 0
	if last := len(lines) - 1; last > 0 {
		if len(lines[last]) > 0 {
			torn = 1
		}
		lines = lines[:last]
	}
	if err := decodeStrict(bytes.NewReader(lines[0]), &h); err != nil {
		return h, nil, 0, fmt.Errorf("serve: journal %s header: %w", path, err)
	}
	if h.Magic != journalMagic {
		return h, nil, 0, fmt.Errorf("serve: %s is not a vtmig-serve journal (magic %q)", path, h.Magic)
	}
	if h.Version != journalVersion {
		return h, nil, 0, fmt.Errorf("serve: journal %s has version %d, this build reads %d", path, h.Version, journalVersion)
	}
	var entries []journalEntry
	for i, line := range lines[1:] {
		var e journalEntry
		if err := decodeStrict(bytes.NewReader(line), &e); err != nil {
			return h, nil, 0, fmt.Errorf("serve: journal %s entry line %d is corrupt mid-file (a newline-terminated line, not a torn append): %w", path, i+2, err)
		}
		if e.Seq != i+1 {
			return h, nil, 0, fmt.Errorf("serve: journal %s entry line %d has sequence %d, want %d — entries are missing or reordered", path, i+2, e.Seq, i+1)
		}
		entries = append(entries, e)
	}
	return h, entries, torn, nil
}

// decodeStrict decodes exactly one JSON value from r into v, rejecting
// unknown fields and anything but white space after the value — a
// second value included.
func decodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("trailing data after JSON value")
	}
	return nil
}
