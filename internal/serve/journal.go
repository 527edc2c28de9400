package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
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
	enc, err := json.Marshal(req)
	if err != nil {
		return fmt.Errorf("serve: encoding journal entry %d: %w", seq, err)
	}
	w.reqs = append(w.reqs, enc...)
	w.ends = append(w.ends, len(w.reqs))
	w.buf = appendEntry(w.buf, seq, enc)
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
// would hold after staging and flushing the same rounds. The old file is
// closed only after the rename; on error w stays the live journal,
// unchanged, and the caller discards next.
func (w *journalWriter) carry(next *os.File, nextPath string, cut int) (*journalWriter, error) {
	if w.failed {
		return nil, fmt.Errorf("serve: journal writer failed earlier; refusing the journal switch")
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
		return nil, err
	}
	if err := os.Rename(nextPath, w.path); err != nil {
		return nil, fmt.Errorf("serve: committing journal: %w", err)
	}
	w.f.Close()
	return nw, nil
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
// A torn trailing line — the partial record of an append cut off by a
// crash — is dropped and counted: its quote was journaled but never
// acknowledged, so dropping it reconstructs exactly the state every
// answered quote saw. Every other irregularity (missing or malformed
// header, malformed or out-of-order entry anywhere before the last line)
// refuses loudly instead of guessing.
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
	// is empty; anything non-empty there is a torn trailing line candidate.
	last := len(lines) - 1
	if len(lines[last]) == 0 {
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
	torn := 0
	for i, line := range lines[1:] {
		var e journalEntry
		if err := decodeStrict(bytes.NewReader(line), &e); err != nil {
			if i == len(lines)-2 { // final line: torn by a crash mid-append
				torn = 1
				break
			}
			return h, nil, 0, fmt.Errorf("serve: journal %s entry line %d is corrupt mid-file: %w", path, i+2, err)
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
