package linkindex

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// This file implements asynchronous WAL-shipping replication: a leader
// serves its committed log records over HTTP straight from the segment
// files, and a Follower bootstraps from the leader's newest snapshot and
// then tails the stream into its own local WAL — so a follower is itself
// crash-safe and re-tails from its last applied sequence number after a
// restart (through the same Recover path as the leader).
//
// Wire protocol of GET /wal/stream?from_seq=N (response body):
//
//	8 bytes   stream magic "glnkrep1"
//	frames, each laid out exactly like a WAL record (wal.go; appendFrame
//	and readFrame are the one codec of both)
//
// Frames with seq ≥ 1 carry WAL records, contiguous from from_seq+1.
// seq == 0 is the heartbeat sentinel (record sequence numbers start at
// 1): its 16-byte payload is the leader's last committed seq (u64 LE)
// followed by the leader's clock in unix nanoseconds (i64 LE). The
// leader emits a heartbeat at stream start, every time the follower is
// caught up, and on an idle interval — heartbeats are what let a
// follower report lag while no writes arrive.
//
// When the records a follower asks for have been deleted by snapshot
// compaction, the leader answers 410 Gone and the follower re-bootstraps
// from GET /wal/snapshot (the newest snapshot file, v2 sectioned format,
// with its covered seq in the X-Snapshot-Seq header).

const (
	replStreamMagic  = "glnkrep1"
	replHeartbeatSeq = 0 // frame seq reserved for heartbeats
	replHeartbeatLen = 16
)

var (
	// replHeartbeatInterval paces heartbeats on an idle stream (var so
	// tests can tighten it).
	replHeartbeatInterval = 500 * time.Millisecond
	// replWriteTimeout bounds each write burst on the stream; the handler
	// extends the server's write deadline by this much per round, since a
	// long-lived stream outlives any fixed per-response timeout.
	replWriteTimeout = 30 * time.Second
	// replSnapshotTimeout bounds one whole snapshot fetch (connect,
	// headers and body): unlike the long-poll stream, a bootstrap download
	// has no legitimate reason to sit idle forever, and an unbounded fetch
	// against a wedged leader would wedge the follower's bootstrap with
	// it. Generous because the body is a full corpus snapshot.
	replSnapshotTimeout = 5 * time.Minute
)

// PooledTransport returns an http.Transport tuned for the intra-cluster
// HTTP traffic of this package and the routing tier: bounded dials,
// keep-alive connection pooling per backend so steady request flows
// (snapshot fetches, router fan-out legs, membership polls) reuse
// connections instead of paying a dial + slow-start per request. No
// response-header or overall timeout is imposed here — the long-poll
// /wal/stream tail must be allowed to idle — so callers that want a
// deadline set http.Client.Timeout (see NewPooledClient) or use request
// contexts.
func PooledTransport() *http.Transport {
	return &http.Transport{
		DialContext: (&net.Dialer{
			Timeout:   5 * time.Second,
			KeepAlive: 30 * time.Second,
		}).DialContext,
		MaxIdleConns:          256,
		MaxIdleConnsPerHost:   32,
		IdleConnTimeout:       90 * time.Second,
		TLSHandshakeTimeout:   10 * time.Second,
		ExpectContinueTimeout: time.Second,
	}
}

// NewPooledClient returns an http.Client over a PooledTransport with the
// given overall per-request timeout (0 means none — required for
// long-poll streams). The follower's snapshot fetches and the router
// share this constructor so every intra-cluster client pools
// connections the same way.
func NewPooledClient(timeout time.Duration) *http.Client {
	return &http.Client{Transport: PooledTransport(), Timeout: timeout}
}

// streamReader decodes frames from a replication stream with readFrame,
// which trusts nothing it has not verified. FuzzWALStream pins that
// arbitrary bytes never panic it.
type streamReader struct {
	br  *bufio.Reader
	buf bytes.Buffer
}

func newStreamReader(r io.Reader) *streamReader {
	return &streamReader{br: bufio.NewReaderSize(r, 1<<16)}
}

func (sr *streamReader) readMagic() error {
	magic := make([]byte, len(replStreamMagic))
	if _, err := io.ReadFull(sr.br, magic); err != nil {
		return fmt.Errorf("linkindex: replication: stream magic: %w", err)
	}
	if string(magic) != replStreamMagic {
		return fmt.Errorf("linkindex: replication: bad stream magic %q", magic)
	}
	return nil
}

// next returns the next frame; io.EOF marks a clean end of stream. The
// payload is only valid until the next call.
func (sr *streamReader) next() (seq uint64, payload []byte, err error) {
	seq, payload, err = readFrame(sr.br, &sr.buf)
	if err != nil && err != io.EOF {
		err = fmt.Errorf("linkindex: replication: stream: %w", err)
	}
	return seq, payload, err
}

// replError writes the service's standard JSON error body.
func replError(w http.ResponseWriter, code int, msg string, extra map[string]any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	body := map[string]any{"error": msg}
	for k, v := range extra {
		body[k] = v
	}
	//genlint:ignore errsink best-effort error body; the status code is already committed and the client may be gone
	_ = json.NewEncoder(w).Encode(body)
}

// walRef returns the current log handle under the mutation lock — the
// pointer is swapped by resetToSnapshot, so unlocked reads would race.
func (d *DurableIndex) walRef() *wal {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.wal
}

// AppliedSeq returns the sequence number of the last record the index
// has logged and applied.
func (d *DurableIndex) AppliedSeq() uint64 {
	return d.walRef().LastSeq()
}

// ServeWALStream implements GET /wal/stream?from_seq=N: it streams
// committed WAL records with seq > N straight from the segment files,
// interleaved with heartbeats, until the client goes away. When the
// requested records were compacted away it answers 410 Gone with the
// newest snapshot's seq, telling the follower to re-bootstrap.
func (d *DurableIndex) ServeWALStream(w http.ResponseWriter, r *http.Request) {
	var fromSeq uint64
	if s := r.URL.Query().Get("from_seq"); s != "" {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			replError(w, http.StatusBadRequest, "invalid from_seq: "+err.Error(), nil)
			return
		}
		fromSeq = v
	}
	wl := d.walRef()
	if err := wl.Err(); err != nil {
		replError(w, http.StatusInternalServerError, err.Error(), nil)
		return
	}
	if oldest := oldestWALSeq(d.dir, wl.LastSeq()); fromSeq+1 < oldest {
		replError(w, http.StatusGone, "requested records compacted away; re-bootstrap from the snapshot", map[string]any{
			"oldest_seq":   oldest,
			"snapshot_seq": d.lastSnapSeq.Load(),
		})
		return
	}

	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)
	_ = rc.SetWriteDeadline(time.Now().Add(replWriteTimeout))
	if _, err := io.WriteString(w, replStreamMagic); err != nil {
		return
	}
	rd := newWALReader(d.dir, fromSeq)
	defer rd.Close()
	hb := make([]byte, replHeartbeatLen)
	heartbeat := func(gate uint64) error {
		binary.LittleEndian.PutUint64(hb[0:8], gate)
		binary.LittleEndian.PutUint64(hb[8:16], uint64(time.Now().UnixNano()))
		return appendFrame(w, replHeartbeatSeq, hb)
	}
	ctx := r.Context()
	// One reusable heartbeat timer for the life of the stream: time.After
	// in this loop would allocate a timer per wakeup that lives until it
	// fires.
	hbTimer := time.NewTimer(replHeartbeatInterval)
	defer hbTimer.Stop()
	for {
		wl := d.walRef()
		// Order matters: snapshot (gate, notify) first, then check the
		// log. Append flushes every record before it returns, so each one
		// ≤ gate is readable from the segment files; but a record whose
		// fsync failed counts in gate without having been acknowledged.
		gate, notify := wl.seqAndNotify()
		if err := wl.Err(); err != nil {
			return // log closed or poisoned: drop the stream, follower reconnects
		}
		_ = rc.SetWriteDeadline(time.Now().Add(replWriteTimeout))
		for {
			seq, payload, err := rd.next(gate)
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				break // nothing more on disk yet: wait for the next append
			}
			if err != nil {
				// Compaction overtook the reader, or the log is damaged.
				// Nothing useful can follow a 200: drop the stream. The
				// follower reconnects, and gets the 410 if its next record
				// was compacted away.
				return
			}
			if err := appendFrame(w, seq, payload); err != nil {
				return
			}
		}
		if err := heartbeat(gate); err != nil {
			return
		}
		//genlint:ignore errsink stream flush to a live ResponseWriter; a broken connection surfaces on the next appendFrame
		_ = rc.Flush()
		hbTimer.Reset(replHeartbeatInterval)
		select {
		case <-ctx.Done():
			return
		case <-notify:
		case <-hbTimer.C:
		}
	}
}

// ServeWALSnapshot implements GET /wal/snapshot: the newest snapshot
// file verbatim, its covered sequence number in X-Snapshot-Seq. The
// retry loop covers the race where compaction deletes a snapshot
// between listing and opening.
func (d *DurableIndex) ServeWALSnapshot(w http.ResponseWriter, r *http.Request) {
	for attempt := 0; attempt < 3; attempt++ {
		snaps, err := listSnapshots(d.dir)
		if err != nil {
			replError(w, http.StatusInternalServerError, err.Error(), nil)
			return
		}
		if len(snaps) == 0 {
			replError(w, http.StatusNotFound, "no snapshot available", nil)
			return
		}
		f, err := os.Open(snaps[0].path)
		if err != nil {
			if os.IsNotExist(err) {
				continue
			}
			replError(w, http.StatusInternalServerError, err.Error(), nil)
			return
		}
		st, err := f.Stat()
		if err != nil {
			f.Close()
			replError(w, http.StatusInternalServerError, err.Error(), nil)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("X-Snapshot-Seq", strconv.FormatUint(snaps[0].seq, 10))
		w.Header().Set("Content-Length", strconv.FormatInt(st.Size(), 10))
		_, _ = io.Copy(w, f)
		f.Close()
		return
	}
	replError(w, http.StatusInternalServerError, "snapshot files kept changing; retry", nil)
}

// applyReplicated logs and applies one record shipped from the leader,
// verbatim, through the commit step. The record must be the exact next
// sequence number: the local Append assigns seq itself, which keeps
// follower seq numbering byte-identical to the leader's, so a promoted
// follower's log is a seamless continuation.
func (d *DurableIndex) applyReplicated(seq uint64, payload []byte) error {
	b, err := decodeWALBatch(payload)
	if err != nil {
		return fmt.Errorf("linkindex: replication: undecodable record %d: %w", seq, err)
	}
	_, err = d.commit(b, payload, seq)
	return err
}

// writeSnapshotBytes stores a snapshot fetched from the leader verbatim,
// through the same atomic write as locally captured snapshots.
func writeSnapshotBytes(path string, data []byte) error {
	return writeSnapshotFile(path, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}

// resetToSnapshot replaces the durable state with a leader snapshot at
// seq: the local log is cut over to start after seq, and the in-memory
// index is diff-applied to the snapshot's state — the ShardedIndex
// pointer survives, so readers holding Index() keep working. Reads
// during the reset see intermediate states (per-shard application), the
// same eventual-consistency a tailing follower already exposes. The
// snapshot is decoded and checked before anything on disk is touched,
// but never built into an index of its own, so a snapshot of another
// shard count, whose answers would differ, is refused.
func (d *DurableIndex) resetToSnapshot(data []byte, seq uint64) error {
	snap, err := decodeSnapshot(data)
	if err != nil {
		return err
	}
	if snap.header.Shards != len(d.ix.shards) {
		return fmt.Errorf("linkindex: replication: leader snapshot has %d shards, this follower %d; re-create the follower's directory", snap.header.Shards, len(d.ix.shards))
	}
	d.snapMu.Lock()
	defer d.snapMu.Unlock()
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return errWALClosed
	}
	if err := d.wal.Close(); err != nil {
		d.opts.logf("replication: reset: closing log: %v", err)
	}
	// Durable cut first, cleanup after: write the new snapshot, then
	// delete the old snapshots and every old segment. A crash in between
	// leaves both generations on disk and recovery picks the newest
	// snapshot; a crash before the write leaves the old state intact (and
	// OpenFollower re-bootstraps if nothing is left).
	if err := writeSnapshotBytes(filepath.Join(d.dir, snapName(seq)), data); err != nil {
		return err
	}
	snaps, err := listSnapshots(d.dir)
	if err != nil {
		return err
	}
	for _, s := range snaps {
		if s.seq != seq {
			if err := os.Remove(s.path); err != nil {
				return fmt.Errorf("linkindex: replication: %w", err)
			}
		}
	}
	segs, err := listSegments(d.dir)
	if err != nil {
		return err
	}
	for _, s := range segs {
		if err := os.Remove(s.path); err != nil {
			return fmt.Errorf("linkindex: replication: %w", err)
		}
	}
	// Diff-apply: upsert everything the snapshot holds, delete everything
	// it does not.
	var b Batch
	for _, sec := range snap.sections {
		b.Encoded = append(b.Encoded, sec...)
	}
	want := make(map[string]bool, len(b.Encoded))
	for _, e := range b.Encoded {
		want[e.ID()] = true
	}
	for _, sh := range d.ix.shards {
		for _, v := range sh.versions() {
			if !want[v.id] {
				b.Deletes = append(b.Deletes, v.id)
			}
		}
	}
	d.ix.Apply(b)
	w, err := openWAL(d.dir, seq, d.opts.wal())
	if err != nil {
		return err
	}
	d.wal = w
	d.lastSnapSeq.Store(seq)
	return nil
}

// FollowerOptions configures OpenFollower.
type FollowerOptions struct {
	// Leader is the leader's base address ("host:port" or a full URL).
	Leader string
	// Dir is the follower's own durable directory (snapshots + WAL).
	Dir string
	// Durable tunes the follower's local log and snapshots.
	Durable DurableOptions
	// Client overrides the HTTP client for both the stream tail and
	// snapshot fetches (nil means clients over one PooledTransport: the
	// stream tail timeout-exempt, snapshot fetches bounded). Do not set a
	// Timeout on an override: the stream request is long-lived.
	Client *http.Client
	// ReconnectDelay paces reconnection after a dropped stream
	// (default 500ms).
	ReconnectDelay time.Duration
}

// ReplicationStatus is a point-in-time summary of a follower.
type ReplicationStatus struct {
	// Role is "follower", or "leader" after Promote.
	Role string `json:"role"`
	// Leader is the upstream address writes should go to (while a
	// follower).
	Leader string `json:"leader"`
	// AppliedSeq is the last record logged and applied locally.
	AppliedSeq uint64 `json:"applied_seq"`
	// LeaderSeq is the leader's last committed record per the newest
	// heartbeat (0 until the first heartbeat arrives).
	LeaderSeq uint64 `json:"leader_seq"`
	// LagRecords is max(LeaderSeq-AppliedSeq, 0).
	LagRecords uint64 `json:"replica_lag_records"`
	// LagMs is 0 while caught up, else milliseconds since the follower
	// was last caught up (since start when it never was).
	LagMs int64 `json:"replica_lag_ms"`
	// CaughtUp reports a heartbeat has been seen and nothing is pending.
	CaughtUp bool `json:"caught_up"`
	// Bootstraps counts snapshot bootstraps, the initial one included.
	Bootstraps int `json:"bootstraps"`
	// LastError is the most recent tailing error, cleared on a healthy
	// stream round.
	LastError string `json:"last_error,omitempty"`
}

// Follower tails a leader's WAL stream into a local DurableIndex. Reads
// (Query/Get/Stats via Index or Durable) are served from local state;
// all mutation must come from the stream until Promote.
type Follower struct {
	opts FollowerOptions
	// client carries the long-poll /wal/stream tail: pooled transport, no
	// overall timeout (the stream idles legitimately between writes).
	client *http.Client
	// snapClient carries bootstrap/snapshot fetches: same pooled
	// transport, but with an explicit overall timeout so a wedged leader
	// cannot hang a bootstrap forever.
	snapClient *http.Client
	d          *DurableIndex

	cancel   context.CancelFunc
	done     chan struct{}
	stopOnce sync.Once

	promoted   atomic.Bool
	leaderSeq  atomic.Uint64
	caughtUpAt atomic.Int64 // unix nanos of the last caught-up moment
	bootstraps atomic.Int64
	startedAt  time.Time

	errMu   sync.Mutex
	lastErr string // guarded by errMu
}

// OpenFollower starts a follower of opts.Leader rooted at opts.Dir. With
// no local durable state it bootstraps from the leader's newest snapshot
// (the leader must be reachable); with local state it recovers exactly
// like a leader would — snapshot, tail replay, torn-tail discard — and
// re-tails from its last applied seq.
func OpenFollower(opts FollowerOptions) (*Follower, error) {
	if opts.Leader == "" || opts.Dir == "" {
		return nil, errors.New("linkindex: replication: follower needs a leader address and a directory")
	}
	if !strings.Contains(opts.Leader, "://") {
		opts.Leader = "http://" + opts.Leader
	}
	opts.Leader = strings.TrimRight(opts.Leader, "/")
	if opts.ReconnectDelay <= 0 {
		opts.ReconnectDelay = 500 * time.Millisecond
	}
	f := &Follower{opts: opts, client: opts.Client, done: make(chan struct{}), startedAt: time.Now()}
	if f.client == nil {
		// One pooled transport behind both clients: the stream client has
		// no overall timeout (long poll), the snapshot client bounds each
		// bootstrap fetch end to end.
		tr := PooledTransport()
		f.client = &http.Client{Transport: tr} //genlint:ignore noclientdefault the long-poll stream client must idle between frames; the server heartbeat bounds silence
		f.snapClient = &http.Client{Transport: tr, Timeout: replSnapshotTimeout}
	} else {
		// A caller-supplied client is used as-is for both paths; its
		// timeout discipline is the caller's responsibility.
		f.snapClient = f.client
	}
	if HasDurableState(opts.Dir) {
		d, stats, err := Recover(opts.Dir, opts.Durable)
		if err != nil {
			return nil, err
		}
		opts.Durable.logf("replication: follower recovered local state at seq %d (%d records replayed, torn=%v)",
			d.AppliedSeq(), stats.RecordsReplayed, stats.Torn)
		f.d = d
	} else {
		seq, data, err := fetchLeaderSnapshot(context.Background(), f.snapClient, opts.Leader)
		if err != nil {
			return nil, err
		}
		// Restore first, write after: a snapshot this build refuses is
		// never stored, so the next start fetches afresh instead of
		// refusing the same file through Recover forever.
		ix, err := readSnapshot(data)
		if err != nil {
			return nil, err
		}
		if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("linkindex: replication: %w", err)
		}
		if err := writeSnapshotBytes(filepath.Join(opts.Dir, snapName(seq)), data); err != nil {
			return nil, err
		}
		d, err := openRestored(opts.Dir, ix, seq, seq, opts.Durable)
		if err != nil {
			return nil, err
		}
		f.d = d
		f.bootstraps.Add(1)
		opts.Durable.logf("replication: follower bootstrapped from leader snapshot at seq %d", seq)
	}
	ctx, cancel := context.WithCancel(context.Background())
	f.cancel = cancel
	go f.run(ctx)
	return f, nil
}

// fetchLeaderSnapshot downloads the leader's newest snapshot.
func fetchLeaderSnapshot(ctx context.Context, c *http.Client, leader string) (uint64, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, leader+"/wal/snapshot", nil)
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, fmt.Errorf("linkindex: replication: fetch snapshot: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, nil, fmt.Errorf("linkindex: replication: leader snapshot: %s", resp.Status)
	}
	seq, err := strconv.ParseUint(resp.Header.Get("X-Snapshot-Seq"), 10, 64)
	if err != nil {
		return 0, nil, fmt.Errorf("linkindex: replication: leader snapshot: bad X-Snapshot-Seq: %w", err)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, fmt.Errorf("linkindex: replication: fetch snapshot: %w", err)
	}
	return seq, data, nil
}

// run reconnects the tail until the follower is stopped or promoted.
func (f *Follower) run(ctx context.Context) {
	defer close(f.done)
	// One reusable timer across reconnects: time.After in this loop
	// would allocate a timer per attempt that lives until it fires.
	delay := time.NewTimer(f.opts.ReconnectDelay)
	defer delay.Stop()
	for ctx.Err() == nil {
		err := f.tailOnce(ctx)
		if err != nil && ctx.Err() == nil {
			f.setErr(err)
			f.opts.Durable.logf("replication: tail: %v", err)
		}
		delay.Reset(f.opts.ReconnectDelay)
		select {
		case <-ctx.Done():
			return
		case <-delay.C:
		}
	}
}

// tailOnce runs one stream connection: request from the current applied
// seq, then apply frames until the stream breaks. A 410 triggers a
// snapshot re-bootstrap instead.
func (f *Follower) tailOnce(ctx context.Context) error {
	from := f.d.AppliedSeq()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		f.opts.Leader+"/wal/stream?from_seq="+strconv.FormatUint(from, 10), nil)
	if err != nil {
		return err
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusGone:
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return f.rebootstrap(ctx)
	default:
		return fmt.Errorf("linkindex: replication: leader answered %s", resp.Status)
	}
	sr := newStreamReader(resp.Body)
	if err := sr.readMagic(); err != nil {
		return err
	}
	for {
		seq, payload, err := sr.next()
		if err != nil {
			if errors.Is(err, io.EOF) || ctx.Err() != nil {
				return nil // clean close or our own shutdown
			}
			return err
		}
		if seq == replHeartbeatSeq {
			if len(payload) != replHeartbeatLen {
				return fmt.Errorf("linkindex: replication: malformed heartbeat (%d bytes)", len(payload))
			}
			leaderSeq := binary.LittleEndian.Uint64(payload[0:8])
			f.leaderSeq.Store(leaderSeq)
			if f.d.AppliedSeq() >= leaderSeq {
				f.caughtUpAt.Store(time.Now().UnixNano())
				f.setErr(nil)
			}
			continue
		}
		if err := f.d.applyReplicated(seq, payload); err != nil {
			return err
		}
		if seq >= f.leaderSeq.Load() {
			f.caughtUpAt.Store(time.Now().UnixNano())
		}
	}
}

// rebootstrap replaces local state with the leader's newest snapshot
// after the stream position was compacted away.
func (f *Follower) rebootstrap(ctx context.Context) error {
	applied := f.d.AppliedSeq()
	seq, data, err := fetchLeaderSnapshot(ctx, f.snapClient, f.opts.Leader)
	if err != nil {
		return err
	}
	if seq <= applied {
		return fmt.Errorf("linkindex: replication: leader snapshot at seq %d is behind applied seq %d; retrying", seq, applied)
	}
	if err := f.d.resetToSnapshot(data, seq); err != nil {
		return err
	}
	f.bootstraps.Add(1)
	f.opts.Durable.logf("replication: re-bootstrapped from leader snapshot at seq %d (was %d)", seq, applied)
	return nil
}

func (f *Follower) setErr(err error) {
	f.errMu.Lock()
	defer f.errMu.Unlock()
	if err == nil {
		f.lastErr = ""
	} else {
		f.lastErr = err.Error()
	}
}

// stopTail cancels the tailing goroutine and waits for it to exit.
// Idempotent and safe to call concurrently.
func (f *Follower) stopTail() {
	f.stopOnce.Do(f.cancel)
	<-f.done
}

// Stop halts tailing without promoting. The local index stays readable;
// call Durable().Close() to release the log.
func (f *Follower) Stop() { f.stopTail() }

// Promote flips the follower to a leader: stop tailing first, then cut a
// snapshot at the promote point — only after both may the caller accept
// writes, so no shipped record can land after the snapshot. The local
// WAL seq continues the leader's numbering, so old followers can in
// principle re-point here. Promote does not contact the old leader.
func (f *Follower) Promote() error {
	f.stopTail()
	if err := f.d.Snapshot(); err != nil && !errors.Is(err, errWALClosed) {
		return err
	}
	f.promoted.Store(true)
	return nil
}

// Promoted reports whether Promote has completed.
func (f *Follower) Promoted() bool { return f.promoted.Load() }

// Durable returns the follower's local durable index.
func (f *Follower) Durable() *DurableIndex { return f.d }

// Index returns the follower's in-memory index for reads.
func (f *Follower) Index() *ShardedIndex { return f.d.Index() }

// Leader returns the normalized upstream address.
func (f *Follower) Leader() string { return f.opts.Leader }

// Status reports current replication standing.
func (f *Follower) Status() ReplicationStatus {
	applied := f.d.AppliedSeq()
	leaderSeq := f.leaderSeq.Load()
	var lagRecords uint64
	if leaderSeq > applied {
		lagRecords = leaderSeq - applied
	}
	var lagMs int64
	if lagRecords > 0 {
		base := f.startedAt
		if ns := f.caughtUpAt.Load(); ns > 0 {
			base = time.Unix(0, ns)
		}
		lagMs = time.Since(base).Milliseconds()
	}
	role := "follower"
	if f.promoted.Load() {
		role = "leader"
	}
	f.errMu.Lock()
	lastErr := f.lastErr
	f.errMu.Unlock()
	return ReplicationStatus{
		Role:       role,
		Leader:     f.opts.Leader,
		AppliedSeq: applied,
		LeaderSeq:  leaderSeq,
		LagRecords: lagRecords,
		LagMs:      lagMs,
		CaughtUp:   leaderSeq > 0 && lagRecords == 0,
		Bootstraps: int(f.bootstraps.Load()),
		LastError:  lastErr,
	}
}
