package serve

import (
	"fmt"
	"os"

	"vtmig/internal/nn"
)

// store is the persistence boundary the engine writes through: the
// write-ahead staging and flushing of journal entries. The engine never
// sees files, rotation mechanics, or pruning — it stages each round
// before applying it and the intake layer flushes before acknowledging,
// which together keep the invariant every recovery path relies on:
// checkpoint + flushed journal ≽ every acknowledged round.
//
// That invariant holds against a process crash, not a machine crash: a
// flush is one write(2) with no fsync, and no rename syncs the state
// directory, so an acknowledged round survives the process being killed
// but may not survive the kernel losing its page cache. Checkpoint files
// and journal headers are fsynced before they are renamed into place.
//
// The journal binds the newest published checkpoint, which lags the
// learner by one rotation: checkpoint k is written off the serial path
// after rotation k's boundary, and published — renamed into place, where
// replicas can see it — at rotation k+1's boundary, when the journal
// switches to extend it. So the live journal holds the rounds since
// boundary k, between one and two rotations' worth. Both moments fall on
// a round fixed by the request stream, never on goroutine timing, which
// keeps journal bytes and replica answers a function of the stream
// (contract rule 8).
type store interface {
	// stage write-ahead-stages one round's journal entry in memory,
	// numbered after every entry the journal already holds.
	stage(req QuoteRequest) error
	// flush writes every staged entry in one write; it must run before
	// any round staged since the last flush is acknowledged.
	flush() error
	// generation counts journal switches. An entry staged at an older
	// generation than the current one is already on disk, even if never
	// flushed: the switch either carried it into the new journal or
	// published a checkpoint that covers it.
	generation() int
}

// diskStore is the on-disk persistence layer: the live journal plus the
// checkpoint rotation pipeline and pruning in one state directory. The
// engine uses it through the store interface; the Server additionally
// drives rotate from the pricer's snapshot hook and reads entryCount for
// stats.
//
// Rotation runs in two halves around one persistence goroutine, started
// by Server.newStore and stopped by close. At rotation k's boundary the
// serial core only hands checkpoint k (already a deep copy) to the
// goroutine, which encodes it, writes and fsyncs checkpoint k's temp
// file, and prepares the next journal's temp file holding header(k),
// also fsynced. At rotation k+1's boundary the serial core waits for
// that job (long finished, normally), publishes checkpoint k, carries
// the rounds since boundary k into the prepared journal, renames it over
// the live one, prunes, and hands off checkpoint k+1.
type diskStore struct {
	dir     string
	keep    int
	gameFP  string
	journal *journalWriter
	bound   int // snapshot ordinal the journal binds
	gen     int

	// pending is the rotation handed off at the last boundary (nil before
	// the first); cut counts the journal entries at that boundary, the
	// ones its checkpoint covers.
	pending *rotation
	cut     int

	jobs    chan *rotation // to the persistence goroutine, one at a time
	stopped chan struct{}  // closed when the persistence goroutine exits
	enc     []byte         // the goroutine's encode buffer, reused across rotations
}

var _ store = (*diskStore)(nil)

// rotation is one checkpoint's trip through the pipeline. The serial core
// fills the first block at the hand-off; the persistence goroutine fills
// the second and then closes done, which orders its writes before the
// serial core's reads.
type rotation struct {
	ck       *nn.Checkpoint
	path     string // the checkpoint's published name
	nextPath string // where to prepare the next journal

	done      chan struct{}
	published bool     // path already held these exact bytes
	next      *os.File // the prepared journal: header(ck), synced
	err       error
}

func (d *diskStore) stage(req QuoteRequest) error { return d.journal.stage(req) }
func (d *diskStore) flush() error                 { return d.journal.flush() }
func (d *diskStore) generation() int              { return d.gen }

// entryCount reports how many rounds the live journal covers (flushed
// plus staged) past the checkpoint it binds.
func (d *diskStore) entryCount() int { return d.journal.count() }

// bindHeader builds the journal header binding a checkpoint's pricer
// section and CRC under the reference game fingerprint gameFP.
func bindHeader(gameFP string, ps *nn.PricerState, crc uint32) journalHeader {
	return journalHeader{
		Magic:         journalMagic,
		Version:       journalVersion,
		Snapshots:     ps.Snapshots,
		Rounds:        ps.Rounds,
		Updates:       ps.Updates,
		CheckpointCRC: crc,
		Game:          gameFP,
	}
}

// rotate runs one rotation boundary on the serial core: commit the
// rotation handed off at the previous boundary, then hand off ck. A
// failed commit leaves the journal extending the checkpoint it already
// binds — every round since is still journaled, so the state stays
// exactly recoverable — and the next boundary tries again with the next
// checkpoint. Recovery replay sets replay: then rotate never prunes (the
// on-disk journal still binds the old checkpoint until the replayed one
// commits), and it waits for each hand-off at once, so a failed job
// surfaces at its own boundary and aborts the recovery.
func (d *diskStore) rotate(ck *nn.Checkpoint, replay bool) error {
	var err error
	if r := d.pending; r != nil {
		<-r.done
		err = d.commit(r, !replay)
	}
	r := &rotation{
		ck:       ck,
		path:     checkpointPath(d.dir, ck.Pricer.Snapshots),
		nextPath: d.journal.path + ".tmp",
		done:     make(chan struct{}),
	}
	d.pending, d.cut = r, d.journal.count()
	d.jobs <- r
	if replay {
		<-r.done
		if err == nil {
			err = r.err
		}
	}
	return err
}

// commit publishes the checkpoint r persisted and switches the journal to
// extend it, carrying the entries past d.cut — the rounds since r's
// boundary — renumbered from 1; then it prunes when asked. Any failure
// before the switch leaves the live journal untouched.
func (d *diskStore) commit(r *rotation, prune bool) error {
	if r.err != nil {
		return r.err
	}
	if !r.published {
		if err := publishCheckpoint(r.path); err != nil {
			discardJournal(r.next, r.nextPath)
			return err
		}
	}
	journal, err := d.journal.carry(r.next, r.nextPath, d.cut)
	if err != nil {
		discardJournal(r.next, r.nextPath)
		return err
	}
	d.journal, d.bound = journal, r.ck.Pricer.Snapshots
	d.gen++
	if prune {
		return pruneCheckpoints(d.dir, d.bound, d.keep)
	}
	return nil
}

// persistLoop is the persistence goroutine: it runs each handed-off
// rotation's disk work until stop closes the job channel.
func (d *diskStore) persistLoop() {
	defer close(d.stopped)
	for r := range d.jobs {
		d.persist(r)
		close(r.done)
	}
}

// persist encodes r's checkpoint into the reused buffer, makes it durable
// at its temp name, and prepares the journal that will bind it.
func (d *diskStore) persist(r *rotation) {
	var err error
	if d.enc, err = r.ck.AppendBinary(d.enc[:0]); err != nil {
		r.err = fmt.Errorf("serve: encoding checkpoint: %w", err)
		return
	}
	crc := checkpointCRC(d.enc)
	if r.published, r.err = stageCheckpoint(r.path, d.enc); r.err != nil {
		return
	}
	r.next, r.err = prepareJournal(r.nextPath, bindHeader(d.gameFP, r.ck.Pricer, crc))
}

// stop ends the persistence goroutine once its job, if any, is done, and
// closes the journal file that job prepared. Whatever it wrote stays on
// disk unpublished; recovery re-runs the rotation from the journal.
func (d *diskStore) stop() {
	close(d.jobs)
	<-d.stopped
	if r := d.pending; r != nil && r.next != nil {
		r.next.Close()
	}
	d.pending = nil
}

// close stops the persistence goroutine and releases the journal,
// flushing staged entries first.
func (d *diskStore) close() error {
	d.stop()
	return d.journal.Close()
}
