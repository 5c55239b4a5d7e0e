package linkindex

import "errors"

// This file implements the bulk-backfill mode of DurableIndex:
// corpus-scale ingest that skips the per-batch WAL append and fsync and
// is made durable by one atomic snapshot barrier, CommitBackfill.
//
// Crash contract: Backfill writes are NOT logged, so until CommitBackfill
// returns, a crash recovers from the previous snapshot plus the WAL —
// i.e. the pre-backfill state (plus any logged writes acknowledged
// during the session; logged Apply keeps working and its durability
// contract is unchanged). CommitBackfill is the barrier: it writes a
// snapshot of the full in-memory state — backfilled entities included —
// at the current log position, after which recovery restores them. The
// backfill crash tests pin both sides of this contract.
//
// The first Backfill opens the session, and snapshots are suppressed
// until CommitBackfill (Snapshot returns ErrBackfillActive and
// auto-snapshots skip): a snapshot taken mid-session would make a
// *partial* backfill durable, silently breaking the all-or-nothing
// contract above. Backfill and CommitBackfill both hold snapMu, so the
// first Backfill waits out a snapshot already in flight, and a commit
// never interleaves with a backfill write: a write that returned before
// the commit took the lock is in its snapshot, a later one opens the
// next session.
//
// It pays on any disk. Measured on an nproc 2 Xeon (pinned rule
// benchmark/rules/cora.json, default shards, multipass blocking):
// 100,000 cora-x entities loaded from empty in 1,024-entity batches,
// logged Apply plus one Snapshot against Backfill plus CommitBackfill,
// medians [q1 / q3] of 10 rotated rounds:
//
//	disk                  logged                   backfill
//	local disk            0.951 s [0.911 / 0.983]  0.709 s [0.633 / 0.745]  faster in 10/10
//	5 ms Sync (injected)  1.502 s [1.415 / 1.550]  0.715 s [0.683 / 0.766]  faster in 10/10
//
// On the local disk most of the logged path's premium was the WAL
// payload's json.Marshal (0.150 s for the 98 batches), not fsync (group
// commit saves 0.11 s). The table predates stored canonical bytes: an
// in-process batch like these still pays that marshal, now per upsert in
// entity.Encode, which the backfill path pays too, to store the bytes; a
// batch decoded from JSON (the HTTP surface) marshals nothing on either
// path.

// ErrBackfillActive is returned by Snapshot while a backfill session is
// open.
var ErrBackfillActive = errors.New("linkindex: backfill session active")

// Backfill installs a batch into the index without logging it, through
// the durable layer's commit step with no payload, and opens the
// backfill session if none is open. The batch follows Batch semantics
// exactly (last upsert of an ID wins, a delete beats an upsert); it is
// visible to queries at once but invisible to recovery until
// CommitBackfill. It returns the batch's result and the number of
// entities upserted since the session opened. A refused write
// (errWALClosed after Close) opens no session and counts nothing.
func (d *DurableIndex) Backfill(b Batch) (res ApplyResult, pending int, err error) {
	d.snapMu.Lock()
	defer d.snapMu.Unlock()
	res, err = d.commit(b, nil, 0)
	if err == nil {
		d.backfilling.Store(true)
		d.backfillPending += res.Upserted
	}
	return res, d.backfillPending, err
}

// CommitBackfill is the snapshot barrier: it writes a snapshot of the
// full current state at the current log position, making every
// backfilled entity durable atomically, then closes the session and
// re-enables snapshots. It returns the number of entities the session
// upserted. With no session open it is a plain Snapshot that commits 0.
// If the snapshot write fails the session stays open so the caller can
// retry.
func (d *DurableIndex) CommitBackfill() (int, error) {
	d.snapMu.Lock()
	defer d.snapMu.Unlock()
	if err := d.snapshotLocked(); err != nil {
		return 0, err
	}
	committed := d.backfillPending
	d.backfillPending = 0
	d.backfilling.Store(false)
	return committed, nil
}

// Backfilling reports whether a backfill session is currently open.
func (d *DurableIndex) Backfilling() bool { return d.backfilling.Load() }
