package linkindex

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"genlink/internal/entity"
	"genlink/internal/matching"
)

// DurableIndex turns a ShardedIndex from a cache into a store: every
// mutation is appended to a segmented, CRC-checked write-ahead log
// before it is applied, snapshots are taken automatically on policy, and
// Recover rebuilds the exact index from the newest valid snapshot plus
// the log tail after a crash.
//
// Durability contract, by fsync policy:
//
//   - FsyncBatch: an Apply that returned nil survives kill -9 and power
//     loss. A crash mid-append leaves at most one torn final record,
//     which recovery discards — the unacknowledged batch it held was
//     never confirmed to the caller.
//   - FsyncIntervalPolicy: acknowledged batches reach the OS
//     immediately and the disk within one 100 ms group-commit period; a
//     power cut can lose up to one period of acknowledged writes, a
//     process crash loses nothing the OS had accepted.
//
// Apply is the one write method for callers. Every mutation — an Apply,
// a follower's shipped record, a Backfill write — goes through one
// commit step serialized by one mutex, so the log order always equals
// the apply order: recovery replays the same batches in log order and
// lands on the same state. A Backfill write is not logged, so recovery
// does not see it until CommitBackfill. Queries read the underlying
// index directly and are never blocked by the log. Do not mutate the
// underlying index behind the wrapper's back (via Index()): those writes
// would be invisible to the log and silently lost on recovery.
type DurableIndex struct {
	dir  string
	ix   *ShardedIndex
	wal  *wal // guarded by mu (resetToSnapshot swaps the pointer; read via walRef)
	opts DurableOptions

	mu     sync.Mutex // serializes mutations: wal append + index apply
	closed bool       // guarded by mu

	lastSnapSeq  atomic.Uint64
	snapshotting atomic.Bool
	snapMu       sync.Mutex // serializes snapshot file writes, compaction and backfill
	// The backfill session (backfill.go): open while backfilling is set,
	// which suppresses snapshots. Both are written only under snapMu;
	// backfilling is atomic so Backfilling can read it without waiting
	// out a snapshot write.
	backfilling     atomic.Bool
	backfillPending int // guarded by snapMu; entities upserted since the session opened
}

// DurableOptions tunes the write-ahead log, the auto-snapshot policy and
// recovery. The zero value is a usable default: per-batch fsync, 16 MiB
// segments, auto-snapshot every 10000 records.
type DurableOptions struct {
	// Fsync selects when appended records are made durable.
	Fsync FsyncPolicy
	// SegmentBytes rotates the active log segment once it exceeds this
	// size (default 16 MiB).
	SegmentBytes int64
	// SnapshotEvery auto-snapshots after this many log records
	// (default 10000; negative disables).
	SnapshotEvery int
	// Logf, when set, receives diagnostics from background snapshots
	// and recovery fallbacks (e.g. log.Printf).
	Logf func(format string, args ...any)
}

const defaultSnapshotEvery = 10000

func (o DurableOptions) snapshotEvery() int {
	switch {
	case o.SnapshotEvery == 0:
		return defaultSnapshotEvery
	case o.SnapshotEvery < 0:
		return 0
	}
	return o.SnapshotEvery
}

func (o DurableOptions) logf(format string, args ...any) {
	if o.Logf != nil {
		o.Logf(format, args...)
	}
}

func (o DurableOptions) wal() walOptions {
	return walOptions{SegmentBytes: o.SegmentBytes, Fsync: o.Fsync}
}

// RecoveryStats reports what Recover (or OpenDurable) did.
type RecoveryStats struct {
	// Recovered is false when OpenDurable found no durable state and
	// started fresh.
	Recovered bool
	// SnapshotPath and SnapshotSeq identify the snapshot recovery
	// loaded.
	SnapshotPath string
	SnapshotSeq  uint64
	// RecordsReplayed counts the log records applied after the snapshot.
	RecordsReplayed int
	// Torn reports that the log ended in a torn or corrupt record,
	// which recovery discarded.
	Torn bool
	// Duration is the wall-clock recovery time.
	Duration time.Duration
}

// walBatch is the JSON payload of one log record.
type walBatch struct {
	Upserts []*entity.Entity `json:"u,omitempty"`
	Deletes []string         `json:"d,omitempty"`
}

// snapName returns the snapshot file name for the given covered
// sequence number.
func snapName(seq uint64) string {
	return fmt.Sprintf("snapshot-%016d.snap", seq)
}

// durableSnapshot is one snapshot file found on disk.
type durableSnapshot struct {
	path string
	seq  uint64
}

// listSnapshots returns dir's snapshot files in descending seq order
// (newest first). A name counts only if it is exactly snapName(seq): a
// quarantined "….snap.corrupt" or a crash-leftover "….snap.tmp-*" is not
// a snapshot.
func listSnapshots(dir string) ([]durableSnapshot, error) {
	names, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("linkindex: recover: %w", err)
	}
	var snaps []durableSnapshot
	for _, de := range names {
		var seq uint64
		if n, err := fmt.Sscanf(de.Name(), "snapshot-%016d.snap", &seq); n == 1 && err == nil && de.Name() == snapName(seq) {
			snaps = append(snaps, durableSnapshot{path: filepath.Join(dir, de.Name()), seq: seq})
		}
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].seq > snaps[j].seq })
	return snaps, nil
}

// HasDurableState reports whether dir holds durable-index state (a
// snapshot or log segment) that Recover could load.
func HasDurableState(dir string) bool {
	snaps, err := listSnapshots(dir)
	if err == nil && len(snaps) > 0 {
		return true
	}
	segs, err := listSegments(dir)
	return err == nil && len(segs) > 0
}

// NewDurable wraps ix — freshly built or already loaded — in a durable
// index rooted at dir. It writes a genesis snapshot of ix's current
// state (so recovery always has a rule and a base state, even before the
// first auto-snapshot) and opens the log. dir must not already hold
// durable state; use Recover or OpenDurable for that. A rule that fails
// rule.Validate, or a blocker matching.RegistryName cannot name, is
// refused before dir is touched: recovery rebuilds both from the
// snapshot alone, so it could not read them back.
func NewDurable(dir string, ix *ShardedIndex, o DurableOptions) (*DurableIndex, error) {
	if err := ix.rule.Validate(); err != nil {
		return nil, fmt.Errorf("linkindex: durable: %w", err)
	}
	if matching.RegistryName(ix.opts.Blocker) == "" {
		return nil, fmt.Errorf("linkindex: durable: blocker %q is not a registry strategy (%v); recovery could not rebuild it", ix.opts.Blocker.Name(), matching.BlockerNames())
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("linkindex: durable: %w", err)
	}
	if HasDurableState(dir) {
		return nil, fmt.Errorf("linkindex: durable: %s already holds durable state; use Recover", dir)
	}
	if err := writeSnapshotFile(filepath.Join(dir, snapName(0)), ix.buildSnapshot().encode); err != nil {
		return nil, err
	}
	w, err := openWAL(dir, 0, o.wal())
	if err != nil {
		return nil, err
	}
	return &DurableIndex{dir: dir, ix: ix, wal: w, opts: o}, nil
}

// Recover rebuilds a durable index from dir: it loads the newest valid
// snapshot (falling back to older ones if the newest is unreadable),
// replays the log records past the snapshot's sequence number, discards
// a torn tail cleanly, and reopens the log for appending. The recovered
// state is exactly the state whose mutations the log acknowledged — the
// crash-simulation and fuzz tests pin this differentially.
func Recover(dir string, o DurableOptions) (*DurableIndex, RecoveryStats, error) {
	t0 := time.Now()
	var stats RecoveryStats
	snaps, err := listSnapshots(dir)
	if err != nil {
		return nil, stats, err
	}
	if len(snaps) == 0 {
		return nil, stats, fmt.Errorf("linkindex: recover: %s holds no snapshot (the log alone carries no rule); was the directory initialized with NewDurable?", dir)
	}
	var ix *ShardedIndex
	var base durableSnapshot
	var rerr error
	for _, s := range snaps {
		var restored *ShardedIndex
		restored, rerr = RestoreFrom(s.path, RestoreOptions{})
		if errors.Is(rerr, errSnapshotRule) {
			// Every snapshot of a directory carries the same rule and
			// blocker, and its bytes are intact: leave them for a reader
			// that accepts them.
			return nil, stats, fmt.Errorf("linkindex: recover: %s (left in place): %w", s.path, rerr)
		}
		if rerr != nil {
			// Quarantine the unreadable snapshot (keep the bytes for
			// forensics, but take it out of the snapshot-*.snap namespace):
			// left in place it would occupy a retention slot in compact(),
			// eventually evicting the last readable snapshot and anchoring
			// segment deletion at a sequence number nothing can restore.
			o.logf("recover: snapshot %s unreadable (%v); quarantining and falling back", s.path, rerr)
			if qerr := os.Rename(s.path, s.path+".corrupt"); qerr != nil {
				o.logf("recover: quarantine %s: %v", s.path, qerr)
			}
			continue
		}
		ix, base = restored, s
		break
	}
	if ix == nil {
		return nil, stats, fmt.Errorf("linkindex: recover: no readable snapshot in %s; the oldest: %w", dir, rerr)
	}

	// Replay the log tail: read+CRC (replayWAL's walReader) and decode
	// (its callback) stay in this goroutine while the replayer fans
	// per-shard ops out to apply workers. A record that fails to decode
	// stops the scan as a torn tail before any of its ops are applied.
	replayer := startReplayer(ix)
	scan, err := replayWAL(dir, base.seq, func(seq uint64, payload []byte) error {
		var b walBatch
		if err := json.Unmarshal(payload, &b); err != nil {
			return err
		}
		replayer.apply(Batch{Upserts: b.Upserts, Deletes: b.Deletes})
		return nil
	})
	replayer.wait()
	if err != nil {
		return nil, stats, err
	}
	if err := scan.discardTornTail(); err != nil {
		return nil, stats, err
	}
	w, err := openWAL(dir, scan.LastSeq, o.wal())
	if err != nil {
		return nil, stats, err
	}
	d := &DurableIndex{dir: dir, ix: ix, wal: w, opts: o}
	d.lastSnapSeq.Store(base.seq)
	stats = RecoveryStats{
		Recovered:       true,
		SnapshotPath:    base.path,
		SnapshotSeq:     base.seq,
		RecordsReplayed: scan.Records,
		Torn:            scan.Torn,
		Duration:        time.Since(t0),
	}
	return d, stats, nil
}

// OpenDurable opens dir as a durable index: recovering the existing
// state when there is any, otherwise calling build for a fresh index to
// wrap (build is not called on the recovery path, so an expensive
// startup — learning a rule, bulk-loading a corpus — is paid only once).
func OpenDurable(dir string, build func() (*ShardedIndex, error), o DurableOptions) (*DurableIndex, RecoveryStats, error) {
	if HasDurableState(dir) {
		return Recover(dir, o)
	}
	ix, err := build()
	if err != nil {
		return nil, RecoveryStats{}, err
	}
	d, err := NewDurable(dir, ix, o)
	if err != nil {
		return nil, RecoveryStats{}, err
	}
	return d, RecoveryStats{}, nil
}

// Apply logs the batch as one WAL record, then installs it with
// ShardedIndex.Apply: the last upsert of an ID wins, a delete beats an
// upsert, each shard's part is atomic with respect to queries and there
// is no barrier across shards. Once Apply returns nil the record is
// durable under the fsync policy (see the DurableIndex contract) and the
// index reflects the batch; on an error nothing was applied. Recovery
// replays the same batches in log order. An empty batch is a no-op and
// is not logged.
func (d *DurableIndex) Apply(b Batch) (ApplyResult, error) {
	if len(b.Upserts) == 0 && len(b.Deletes) == 0 {
		return ApplyResult{}, nil
	}
	payload, err := json.Marshal(walBatch{Upserts: b.Upserts, Deletes: b.Deletes})
	if err != nil {
		return ApplyResult{}, fmt.Errorf("linkindex: durable: %w", err)
	}
	return d.commit(b, payload, 0)
}

// commit is the durable layer's one write step; logged writes, shipped
// records and backfill writes all go through it. Under d.mu, in order:
// it refuses with errWALClosed after Close; a shipped record (seq ≠ 0)
// must be the log's next sequence number; a logged write (payload ≠ nil)
// is appended to the log; the batch is applied to the index; and a
// logged write starts an auto-snapshot once the uncovered tail has
// reached the policy. A Backfill write has no payload: it is applied
// but not logged, and never triggers a snapshot.
func (d *DurableIndex) commit(b Batch, payload []byte, seq uint64) (ApplyResult, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ApplyResult{}, errWALClosed
	}
	if want := d.wal.LastSeq() + 1; seq != 0 && seq != want {
		return ApplyResult{}, fmt.Errorf("linkindex: replication: out-of-order record %d (want %d)", seq, want)
	}
	if payload != nil {
		if _, err := d.wal.Append(payload); err != nil {
			return ApplyResult{}, err
		}
	}
	res := d.ix.Apply(b)
	if payload != nil {
		d.autoSnapshot(d.uncoveredLocked())
	}
	return res, nil
}

// uncoveredLocked returns the number of log records no snapshot covers
// yet — what recovery would replay right now. It is derived, not
// counted, so records logged while a snapshot file is being written stay
// uncovered by construction. The caller holds d.mu: a snapshot only
// ever records a position the log has already reached, and a follower
// re-bootstrap moves the log and lastSnapSeq together under d.mu, so
// read under it the difference cannot underflow.
func (d *DurableIndex) uncoveredLocked() uint64 {
	return d.wal.LastSeq() - d.lastSnapSeq.Load()
}

// autoSnapshot starts a background snapshot once the uncovered log tail
// has reached SnapshotEvery records, unless one is already running.
func (d *DurableIndex) autoSnapshot(uncovered uint64) {
	every := d.opts.snapshotEvery()
	if every <= 0 || uncovered < uint64(every) || !d.snapshotting.CompareAndSwap(false, true) {
		return
	}
	go func() {
		err := d.Snapshot()
		d.snapshotting.Store(false)
		if err != nil {
			if !errors.Is(err, errWALClosed) && !errors.Is(err, ErrBackfillActive) {
				d.opts.logf("auto-snapshot: %v", err)
			}
			return
		}
		// Writers that crossed the threshold while this snapshot ran lost
		// their trigger to the CAS above; re-check so a write burst that
		// quiesces mid-snapshot still gets its covering snapshot instead
		// of waiting for the next write.
		d.mu.Lock()
		uncovered := d.uncoveredLocked()
		d.mu.Unlock()
		d.autoSnapshot(uncovered)
	}()
}

// Snapshot writes a snapshot of the current state into the log
// directory, rotates the active segment, and compacts: log segments
// fully covered by the snapshot are deleted, and only the two newest
// snapshots are kept. Writers are blocked only while the state is
// captured, not while it is serialized to disk. While a backfill
// session is open Snapshot fails with ErrBackfillActive — a snapshot
// taken mid-session would make a partial backfill durable; call
// CommitBackfill instead, which is exactly this snapshot.
func (d *DurableIndex) Snapshot() error {
	d.snapMu.Lock()
	defer d.snapMu.Unlock()
	if d.backfilling.Load() {
		return ErrBackfillActive
	}
	return d.snapshotLocked()
}

func (d *DurableIndex) snapshotLocked() error {
	// Capture (seq, state) atomically with respect to mutations: under
	// d.mu the index state is exactly the effect of records 1..seq.
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return errWALClosed
	}
	seq := d.wal.LastSeq()
	snap := d.ix.buildSnapshot()
	d.mu.Unlock()

	if err := writeSnapshotFile(filepath.Join(d.dir, snapName(seq)), snap.encode); err != nil {
		return err
	}
	d.lastSnapSeq.Store(seq)
	// Rotate so the segment holding the covered records stops growing
	// and becomes deletable at the next snapshot.
	if err := d.wal.RotateIfDirty(); err != nil && !errors.Is(err, errWALClosed) {
		return err
	}
	return d.compact()
}

// compact prunes all but the two newest snapshots — the previous one
// stays as the fallback should the newest turn out unreadable — then
// deletes log segments every record of which is covered by the OLDEST
// retained snapshot: recovery falling back to that snapshot still finds
// the full log tail it needs. The active segment never qualifies.
func (d *DurableIndex) compact() error {
	snaps, err := listSnapshots(d.dir)
	if err != nil {
		return err
	}
	for _, s := range snaps[min(2, len(snaps)):] {
		if err := os.Remove(s.path); err != nil {
			return fmt.Errorf("linkindex: compact: %w", err)
		}
	}
	if len(snaps) == 0 {
		return nil
	}
	coverSeq := snaps[min(2, len(snaps))-1].seq // oldest retained snapshot
	segs, err := listSegments(d.dir)
	if err != nil {
		return err
	}
	for i := 0; i+1 < len(segs); i++ {
		// Every record of segs[i] has seq < segs[i+1].firstSeq, so the
		// segment is fully covered when that bound is ≤ coverSeq+1.
		if segs[i+1].firstSeq <= coverSeq+1 {
			if err := os.Remove(segs[i].path); err != nil {
				return fmt.Errorf("linkindex: compact: %w", err)
			}
		}
	}
	return nil
}

// Close syncs the log tail and closes the log. The index stays
// queryable; further mutations fail. Close does not snapshot — call
// Snapshot first for a compact restart, or let recovery replay the tail.
func (d *DurableIndex) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	d.closed = true
	return d.wal.Close()
}

// Index returns the underlying sharded index for reads (Query, QueryID,
// Get, Stats, Entities). Mutating it directly bypasses the log — those
// writes would be lost on recovery; always mutate through Apply.
func (d *DurableIndex) Index() *ShardedIndex { return d.ix }

// Len delegates to the underlying index.
func (d *DurableIndex) Len() int { return d.ix.Len() }

// Dir returns the durable directory (log segments + snapshots).
func (d *DurableIndex) Dir() string { return d.dir }

// DurableMetrics is a point-in-time summary of the durability subsystem.
type DurableMetrics struct {
	// WALRecords is the sequence number of the last logged record — the
	// total number of records ever appended.
	WALRecords uint64
	// WALSegments counts the log segment files, including the active one.
	WALSegments int
	// SnapshotSeq is the sequence number the newest snapshot covers.
	SnapshotSeq uint64
	// RecordsSinceSnapshot counts log records not yet covered by a
	// snapshot (what recovery would replay right now).
	RecordsSinceSnapshot int64
}

// Metrics returns the current durability counters.
func (d *DurableIndex) Metrics() DurableMetrics {
	d.mu.Lock()
	w, seq, uncovered := d.wal, d.wal.LastSeq(), d.uncoveredLocked()
	d.mu.Unlock()
	return DurableMetrics{
		WALRecords:           seq,
		WALSegments:          w.Segments(),
		SnapshotSeq:          seq - uncovered, // the lastSnapSeq the count was derived from
		RecordsSinceSnapshot: int64(uncovered),
	}
}
