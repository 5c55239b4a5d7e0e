package linkindex

import (
	"errors"
	"sync"
	"sync/atomic"

	"genlink/internal/entity"
)

// This file implements the bulk-backfill fast path on DurableIndex:
// corpus-scale ingest that skips the per-batch WAL append/fsync cost and
// is made durable by one atomic snapshot barrier at commit time.
//
// Crash contract: backfill applies are NOT logged, so until Commit
// returns, a crash recovers from the previous snapshot plus the WAL —
// i.e. the pre-backfill state (plus any logged writes acknowledged
// during the session; logged Apply keeps working and its durability
// contract is unchanged). Commit is the barrier: it writes a snapshot of
// the full in-memory state — backfilled entities included — at the
// current log position, after which recovery restores them. The backfill
// crash test pins both sides of this contract.
//
// While a session is open, snapshots are suppressed (Snapshot returns
// ErrBackfillActive and auto-snapshots skip): a snapshot taken mid-
// session would make a *partial* backfill durable, silently breaking the
// all-or-nothing contract above. BeginBackfill fences on the snapshot
// lock, so a snapshot already in flight completes before the first
// unlogged apply can land.

// ErrBackfillActive is returned by Snapshot and BeginBackfill while a
// backfill session is open, and by session methods after Commit or
// Abort.
var ErrBackfillActive = errors.New("linkindex: backfill session active")

// errBackfillClosed rejects use of a committed or aborted session.
var errBackfillClosed = errors.New("linkindex: backfill session closed")

// Backfill is an open bulk-ingest session on a DurableIndex. Apply and
// BulkLoad install batches through the same per-shard parallel write
// pipeline as logged writes but skip the WAL entirely; Commit makes the
// session durable with one snapshot barrier. At most one session is open
// per index. Methods are safe for concurrent use.
type Backfill struct {
	d      *DurableIndex
	mu     sync.Mutex
	closed bool // guarded by mu
	loaded atomic.Int64
}

// BeginBackfill opens a bulk-ingest session. It fails with
// ErrBackfillActive when a session is already open. Any snapshot in
// flight completes before BeginBackfill returns, so the pre-backfill
// recovery point is fully on disk before the first unlogged write.
func (d *DurableIndex) BeginBackfill() (*Backfill, error) {
	d.snapMu.Lock()
	defer d.snapMu.Unlock()
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil, errWALClosed
	}
	if !d.backfilling.CompareAndSwap(false, true) {
		return nil, ErrBackfillActive
	}
	return &Backfill{d: d}, nil
}

// Apply installs a batch into the index without logging it, through the
// durable layer's commit step with no payload. The batch follows Batch
// semantics exactly (last upsert of an ID wins, a delete beats an
// upsert); it is visible to queries at once but invisible to recovery
// until Commit.
func (bf *Backfill) Apply(b Batch) (ApplyResult, error) {
	bf.mu.Lock()
	defer bf.mu.Unlock()
	if bf.closed {
		return ApplyResult{}, errBackfillClosed
	}
	res, err := bf.d.commit(b, nil, 0)
	bf.loaded.Add(int64(res.Upserted))
	return res, err
}

// BulkLoad applies every entity as one unlogged batch, returning the
// number of distinct entities applied.
func (bf *Backfill) BulkLoad(entities []*entity.Entity) (int, error) {
	res, err := bf.Apply(Batch{Upserts: entities})
	return res.Upserted, err
}

// Loaded returns the number of entities upserted through this session so
// far.
func (bf *Backfill) Loaded() int64 { return bf.loaded.Load() }

// Commit is the snapshot barrier: it writes a snapshot of the full
// current state at the current log position, making every backfilled
// entity durable atomically, then closes the session and re-enables
// snapshots. If the snapshot write fails the session stays open so the
// caller can retry Commit (or Abort).
func (bf *Backfill) Commit() error {
	bf.mu.Lock()
	defer bf.mu.Unlock()
	if bf.closed {
		return errBackfillClosed
	}
	d := bf.d
	d.snapMu.Lock()
	defer d.snapMu.Unlock()
	if err := d.snapshotLocked(); err != nil {
		return err
	}
	bf.closed = true
	d.backfilling.Store(false)
	return nil
}

// Abort closes the session without a snapshot barrier. The entities
// already applied stay visible in memory but are NOT durable: a crash
// before some later snapshot recovers the pre-backfill state. (The next
// snapshot — auto or explicit — will persist them; Abort only gives up
// the atomicity point, it cannot unapply.)
func (bf *Backfill) Abort() {
	bf.mu.Lock()
	defer bf.mu.Unlock()
	if bf.closed {
		return
	}
	bf.closed = true
	bf.d.backfilling.Store(false)
}

// BulkBackfill is the one-shot form: open a session, load every entity
// in one unlogged batch, and commit with the snapshot barrier. It
// returns the number of distinct entities applied.
func (d *DurableIndex) BulkBackfill(entities []*entity.Entity) (int, error) {
	bf, err := d.BeginBackfill()
	if err != nil {
		return 0, err
	}
	n, err := bf.BulkLoad(entities)
	if err != nil {
		bf.Abort()
		return n, err
	}
	if err := bf.Commit(); err != nil {
		bf.Abort()
		return n, err
	}
	return n, nil
}

// Backfilling reports whether a backfill session is currently open.
func (d *DurableIndex) Backfilling() bool { return d.backfilling.Load() }
