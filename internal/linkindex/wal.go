package linkindex

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// This file implements the write-ahead log under DurableIndex: an
// append-only sequence of length-prefixed, CRC-checked records split
// across segment files. Every record is one applied Batch; recovery
// replays the records past the newest snapshot's sequence number, and
// compaction deletes segments the snapshot fully covers.
//
// On-disk layout of one segment (wal-%016d.seg, named by the sequence
// number of its first record):
//
//	8 bytes   magic "glnkwal1"
//	records:
//	  4 bytes  payload length (little endian)
//	  4 bytes  CRC-32C (Castagnoli) over seq bytes + payload
//	  8 bytes  record sequence number (little endian)
//	  n bytes  payload (JSON-encoded batch)
//
// A reader stops cleanly at the first record whose header, CRC or
// sequence number does not check out — a crash mid-append leaves exactly
// such a torn tail, and everything before it is intact by construction
// (records are written strictly append-only).

// FsyncPolicy selects when the WAL makes appended records durable. Under
// either policy every Append has reached the OS before it returns, so a
// process crash loses nothing acknowledged.
type FsyncPolicy int

const (
	// FsyncBatch fsyncs before acknowledging every append: an
	// acknowledged batch survives power loss. The default, and the
	// slowest.
	FsyncBatch FsyncPolicy = iota
	// FsyncIntervalPolicy group-commits: appends return after the write
	// reaches the OS, and a background flusher fsyncs every 100 ms. A
	// power cut can lose up to one interval of acknowledged batches.
	//
	// It pays on a slow disk. Measured on an nproc 2 Xeon (pinned rule
	// benchmark/rules/cora.json, 2 shards, multipass blocking; 20,000
	// entities in 64-entity batches, 6 rotated repeats; µs per entity
	// for the whole DurableIndex.Apply):
	//
	//	disk                  batch   interval [q1 / q3]     no fsync at all [q1 / q3]
	//	5 ms Sync (injected)  109.3   21.2 [20.9 / 22.5]     20.6 [17.5 / 21.7]
	//	0.2 ms Sync           25.2    21.2 [16.6 / 21.4]     21.7 [18.9 / 22.6]
	//
	// interval is 5.2× batch on the slow disk. A third policy that never
	// fsynced fell inside interval's quartiles on both disks, so it was
	// removed.
	FsyncIntervalPolicy
)

// String returns the flag-friendly name of the policy.
func (p FsyncPolicy) String() string {
	switch p {
	case FsyncBatch:
		return "batch"
	case FsyncIntervalPolicy:
		return "interval"
	}
	return fmt.Sprintf("FsyncPolicy(%d)", int(p))
}

// FsyncPolicyByName resolves a flag value ("batch", "interval") to its
// policy. It reports false for unknown names.
func FsyncPolicyByName(name string) (FsyncPolicy, bool) {
	switch name {
	case "batch":
		return FsyncBatch, true
	case "interval":
		return FsyncIntervalPolicy, true
	}
	return 0, false
}

const (
	walMagic     = "glnkwal1"
	walHeaderLen = 16 // u32 length + u32 crc + u64 seq
	// maxWALRecordLen rejects absurd lengths decoded from a corrupt
	// header before they turn into a giant allocation.
	maxWALRecordLen = 1 << 30

	defaultSegmentBytes  = 16 << 20
	defaultFsyncInterval = 100 * time.Millisecond
)

var (
	crcTable     = crc32.MakeTable(crc32.Castagnoli)
	errWALClosed = errors.New("linkindex: wal is closed")
)

// appendFrame encodes one record frame — the layout above, shared by the
// segment files and the replication stream — into w as two writes: the
// 16-byte header, then the payload as given.
func appendFrame(w io.Writer, seq uint64, payload []byte) error {
	var hdr [walHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint64(hdr[8:16], seq)
	crc := crc32.Update(0, crcTable, hdr[8:16])
	crc = crc32.Update(crc, crcTable, payload)
	binary.LittleEndian.PutUint32(hdr[4:8], crc)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readFrame decodes the frame at the head of r — the one decoder behind
// walReader (recovery and the replication stream) and the follower's
// stream reader. It trusts nothing it has not verified: the length is
// bounded, the payload grows in buf from the bytes that actually arrive
// (a corrupt header claiming 1 GiB must not allocate 1 GiB before the
// CRC can reject it), and the CRC is checked before the frame is
// returned. The payload aliases buf. A header that stops short comes
// back bare, as io.ReadFull reports it: io.EOF on a frame boundary, else
// io.ErrUnexpectedEOF; every other failure is wrapped and never bare
// io.EOF. What a failure means (torn tail, not yet written, broken
// stream) and the sequence-number check are the caller's.
func readFrame(r io.Reader, buf *bytes.Buffer) (seq uint64, payload []byte, err error) {
	var hdr [walHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	length := binary.LittleEndian.Uint32(hdr[0:4])
	wantCRC := binary.LittleEndian.Uint32(hdr[4:8])
	seq = binary.LittleEndian.Uint64(hdr[8:16])
	if length > maxWALRecordLen {
		return 0, nil, fmt.Errorf("frame of %d bytes exceeds the %d-byte record limit", length, maxWALRecordLen)
	}
	buf.Reset()
	if _, err := io.CopyN(buf, r, int64(length)); err != nil {
		return 0, nil, fmt.Errorf("frame payload: %w", err)
	}
	payload = buf.Bytes()
	crc := crc32.Update(0, crcTable, hdr[8:16])
	crc = crc32.Update(crc, crcTable, payload)
	if crc != wantCRC {
		return 0, nil, fmt.Errorf("frame CRC mismatch at seq %d", seq)
	}
	return seq, payload, nil
}

// walFile is the file surface the log writes through; *os.File satisfies
// it. Tests substitute a stub whose Sync fails to pin the sticky-error
// contract (an fsync failure must poison the log, not be dropped).
type walFile interface {
	io.Writer
	Sync() error
	Close() error
}

// walOptions tunes the log; zero values take the defaults above.
type walOptions struct {
	SegmentBytes int64
	Fsync        FsyncPolicy
	// Interval is the group-commit period; DurableIndex always leaves it
	// at defaultFsyncInterval, and only tests shorten it.
	Interval time.Duration
	// OpenFile overrides segment file creation (tests inject failing
	// stubs); nil means os.OpenFile.
	OpenFile func(path string) (walFile, error)
}

func (o walOptions) withDefaults() walOptions {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = defaultSegmentBytes
	}
	if o.Interval <= 0 {
		o.Interval = defaultFsyncInterval
	}
	return o
}

// wal is the append side of the log. All methods are safe for concurrent
// use; appends are serialized by one mutex (DurableIndex serializes its
// mutations anyway, so the log order always matches the apply order).
type wal struct {
	dir  string
	opts walOptions

	mu      sync.Mutex
	f       walFile       // guarded by mu
	w       *bufio.Writer // guarded by mu
	size    int64         // guarded by mu; bytes written to the active segment
	seq     uint64        // guarded by mu
	closed  bool          // guarded by mu
	syncErr error         // guarded by mu; first flush/fsync failure poisons the log
	// notify is closed and replaced on every successful append, so
	// long-poll readers (the replication stream) can wait for new records
	// without spinning.
	notify chan struct{} // guarded by mu

	stop chan struct{}
	done chan struct{}
}

// segName returns the file name of the segment whose first record is
// firstSeq.
func segName(firstSeq uint64) string {
	return fmt.Sprintf("wal-%016d.seg", firstSeq)
}

// syncDir fsyncs a directory so a just-created or just-renamed entry in
// it survives a power cut — file data reaching disk does not imply the
// direntry did.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// openWAL opens the log for appending after lastSeq, starting a fresh
// active segment. Recovery has already truncated any torn tail and
// removed unreplayable segments, so an existing file with the new
// segment's name holds nothing worth keeping and is truncated.
func openWAL(dir string, lastSeq uint64, opts walOptions) (*wal, error) {
	w := &wal{dir: dir, opts: opts.withDefaults(), seq: lastSeq, notify: make(chan struct{})}
	if err := w.openSegmentLocked(lastSeq + 1); err != nil {
		return nil, err
	}
	if w.opts.Fsync == FsyncIntervalPolicy {
		w.stop = make(chan struct{})
		w.done = make(chan struct{})
		go w.flushLoop()
	}
	return w, nil
}

// openSegmentLocked starts the active segment for records from firstSeq
// on. Callers hold mu (or have exclusive access during open).
func (w *wal) openSegmentLocked(firstSeq uint64) error {
	path := filepath.Join(w.dir, segName(firstSeq))
	open := w.opts.OpenFile
	if open == nil {
		open = func(path string) (walFile, error) {
			return os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
		}
	}
	f, err := open(path)
	if err != nil {
		return fmt.Errorf("linkindex: wal: %w", err)
	}
	bw := bufio.NewWriterSize(f, 1<<16)
	// Flush the magic now: a crash before the first append must leave a
	// valid empty segment, not a zero-byte file recovery reads as torn.
	if _, err = bw.WriteString(walMagic); err == nil {
		err = bw.Flush()
	}
	if err != nil {
		f.Close()
		return fmt.Errorf("linkindex: wal: %w", err)
	}
	// Make the segment's direntry durable: every record fsync would
	// otherwise be futile if a power cut erased the file itself. Rotation
	// is rare, so one dir fsync per segment is cheap.
	if err := syncDir(w.dir); err != nil {
		f.Close()
		return fmt.Errorf("linkindex: wal: %w", err)
	}
	w.f, w.w, w.size = f, bw, int64(len(walMagic))
	return nil
}

// flushLoop is the FsyncIntervalPolicy group-committer.
func (w *wal) flushLoop() {
	defer close(w.done)
	t := time.NewTicker(w.opts.Interval)
	defer t.Stop()
	for {
		select {
		case <-w.stop:
			return
		case <-t.C:
			w.mu.Lock()
			if !w.closed && w.syncErr == nil {
				// flushLocked records the sticky error itself: a failed
				// group commit must fail the next Append instead of letting
				// the log keep acknowledging writes the disk has dropped.
				_ = w.flushLocked(true)
			}
			w.mu.Unlock()
		}
	}
}

// Append assigns the next sequence number to payload and writes the
// record, making it durable per the fsync policy. It returns the
// assigned sequence number.
func (w *wal) Append(payload []byte) (uint64, error) {
	if len(payload) > maxWALRecordLen {
		return 0, fmt.Errorf("linkindex: wal: record of %d bytes exceeds the %d-byte limit", len(payload), maxWALRecordLen)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return 0, errWALClosed
	}
	if w.syncErr != nil {
		return 0, w.syncErr
	}
	seq := w.seq + 1
	if err := appendFrame(w.w, seq, payload); err != nil {
		return 0, fmt.Errorf("linkindex: wal: %w", err)
	}
	w.seq = seq
	w.size += int64(walHeaderLen + len(payload))
	// Wake long-poll readers waiting for this record.
	close(w.notify)
	w.notify = make(chan struct{})
	// Every acknowledged record reaches the OS now, so a process crash —
	// as opposed to a power cut — loses nothing acknowledged, and the
	// replication stream can read every record up to LastSeq. Only
	// FsyncBatch also fsyncs here; FsyncIntervalPolicy leaves the fsync
	// to the group commit.
	if err := w.flushLocked(w.opts.Fsync == FsyncBatch); err != nil {
		return 0, err
	}
	if w.size >= w.opts.SegmentBytes {
		if err := w.rotateLocked(); err != nil {
			return 0, err
		}
	}
	return seq, nil
}

// flushLocked drains the buffer to the file, fsyncing when sync is set.
// Any failure is recorded as the wal's sticky error before it is
// returned: after the disk has failed a flush or an fsync, the log's
// on-disk suffix is unknown, so every later Append must fail rather than
// acknowledge a write that may never become durable. (This matters most
// for the background group-committer, whose return value nobody reads.)
func (w *wal) flushLocked(sync bool) error {
	if err := w.w.Flush(); err != nil {
		return w.poisonLocked(err)
	}
	if sync {
		if err := w.f.Sync(); err != nil {
			return w.poisonLocked(err)
		}
	}
	return nil
}

// poisonLocked records err as the wal's sticky failure (first one wins)
// and returns the wrapped form. Callers hold mu.
func (w *wal) poisonLocked(err error) error {
	wrapped := fmt.Errorf("linkindex: wal: %w", err)
	if w.syncErr == nil {
		w.syncErr = wrapped
	}
	return wrapped
}

// rotateLocked finishes the active segment and starts the next one.
func (w *wal) rotateLocked() error {
	if err := w.flushLocked(true); err != nil {
		return err
	}
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("linkindex: wal: %w", err)
	}
	return w.openSegmentLocked(w.seq + 1)
}

// RotateIfDirty starts a fresh segment when the active one holds any
// records, so a snapshot taken now fully covers every older segment and
// compaction can delete them.
func (w *wal) RotateIfDirty() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return errWALClosed
	}
	if w.size <= int64(len(walMagic)) {
		return nil
	}
	return w.rotateLocked()
}

// Err returns the log's sticky failure, errWALClosed once the log is
// closed, or nil while it is healthy. The replication stream checks it
// before shipping: a record appended just before a failed flush or fsync
// was never acknowledged and must not reach a follower.
func (w *wal) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return errWALClosed
	}
	return w.syncErr
}

// seqAndNotify returns the last appended sequence number together with
// the channel that will be closed by the next append — the snapshot a
// long-poll reader needs to wait without missing a wakeup: check seq,
// and if nothing new, block on the channel.
func (w *wal) seqAndNotify() (uint64, <-chan struct{}) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.seq, w.notify
}

// LastSeq returns the sequence number of the last appended record (0 for
// an empty log).
func (w *wal) LastSeq() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.seq
}

// Segments returns the number of segment files on disk, including the
// active one. It lists the directory rather than tracking a counter so
// compaction and recovery cleanups can never leave the count stale.
func (w *wal) Segments() int {
	segs, err := listSegments(w.dir)
	if err != nil {
		return 0
	}
	return len(segs)
}

// Close stops the background flusher, flushes the buffered tail and
// closes the active segment. Close always attempts a final fsync so a
// clean shutdown is durable under either policy.
func (w *wal) Close() error {
	if w.stop != nil {
		close(w.stop)
		<-w.done
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	err := w.w.Flush()
	if serr := w.f.Sync(); err == nil {
		err = serr
	}
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("linkindex: wal: %w", err)
	}
	return nil
}

// walSegment is one segment file found on disk.
type walSegment struct {
	path     string
	firstSeq uint64
}

// listSegments returns the segment files of dir in ascending first-seq
// order. Files whose name is not exactly segName(first) are ignored.
func listSegments(dir string) ([]walSegment, error) {
	names, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("linkindex: wal: %w", err)
	}
	var segs []walSegment
	for _, de := range names {
		var first uint64
		if n, err := fmt.Sscanf(de.Name(), "wal-%016d.seg", &first); n == 1 && err == nil && de.Name() == segName(first) {
			segs = append(segs, walSegment{path: filepath.Join(dir, de.Name()), firstSeq: first})
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].firstSeq < segs[j].firstSeq })
	return segs, nil
}

// walScan reports what replayWAL found.
type walScan struct {
	// LastSeq is the sequence number of the last record handed to fn
	// (fromSeq when nothing was replayed).
	LastSeq uint64
	// Records counts the records handed to fn.
	Records int
	// Torn reports that the scan stopped at a corrupt or truncated
	// record instead of the end of the log.
	Torn bool
	// cut/cutOffset locate the torn tail: the segment holding it and the
	// byte offset at which its valid records end.
	cut       walSegment
	cutOffset int64
}

// replayWAL streams every record with sequence number > fromSeq to fn,
// in order. It stops cleanly — never panics, never errors — wherever the
// reader finds the log damaged (a truncated header or payload, a CRC
// mismatch, a sequence gap within or across segments) or fn rejects a
// record (an undecodable payload), reporting the stop through
// walScan.Torn. Real I/O errors (an unreadable directory) are returned
// as err.
func replayWAL(dir string, fromSeq uint64, fn func(seq uint64, payload []byte) error) (walScan, error) {
	r := newWALReader(dir, fromSeq)
	defer r.Close()
	scan := walScan{LastSeq: fromSeq}
	for {
		seq, payload, err := r.next(math.MaxUint64)
		var damage *walDamage
		switch {
		case err == io.EOF:
			return scan, nil
		case err == io.ErrUnexpectedEOF:
			scan.cut, scan.cutOffset = r.seg, r.offset
		case errors.As(err, &damage):
			scan.cut, scan.cutOffset = damage.seg, damage.offset
		case err != nil:
			return scan, err
		default:
			if fn(seq, payload) == nil {
				scan.LastSeq = seq
				scan.Records++
				continue
			}
			// CRC-valid but undecodable: a format drift, not a torn write —
			// still cut the log before it rather than guess.
			scan.cut, scan.cutOffset = r.seg, r.offset-int64(walHeaderLen+len(payload))
		}
		scan.Torn = true
		return scan, nil
	}
}

// errWALCompacted reports that a record a reader needs has been deleted
// by snapshot compaction: the reader fell behind the retention window
// and must re-bootstrap from a snapshot instead of the log.
var errWALCompacted = errors.New("linkindex: wal: records compacted away; re-bootstrap from a snapshot")

// walDamage is a stop that no later append can cure: a segment without
// the magic, a frame readFrame rejects, a sequence gap, a frame cut short
// with more log after it, or deleted records (err is errWALCompacted).
// The valid log ends at offset in seg.
type walDamage struct {
	seg    walSegment
	offset int64
	err    error
}

func (d *walDamage) Error() string {
	return fmt.Sprintf("linkindex: wal: %s at offset %d: %v", filepath.Base(d.seg.path), d.offset, d.err)
}

func (d *walDamage) Unwrap() error { return d.err }

// walReader reads records in log order across the segment files. It is
// the one segment reader: recovery (replayWAL) and the leader's
// replication stream (ServeWALStream) both read through it, and keep
// only their own policy for what a stop means. It opens segments
// read-only, decoupled from the appender, and checks every record:
// readFrame's length bound and CRC, then sequence contiguity within and
// across segments. The appender may keep writing while a reader reads:
// callers gate each read on LastSeq, and every record up to it has
// reached the OS because Append flushes before it returns.
type walReader struct {
	dir     string
	nextSeq uint64        // sequence number of the next record to return
	seg     walSegment    // the open segment
	f       *os.File      // nil until the first segment is open
	br      *bufio.Reader // f, buffered
	offset  int64         // byte offset in f of the frame br reads next
	expect  uint64        // sequence number of the frame at offset
	buf     bytes.Buffer  // payload buffer; a returned payload aliases it
}

// newWALReader positions a reader after fromSeq: the first record it
// returns is fromSeq+1.
func newWALReader(dir string, fromSeq uint64) *walReader {
	return &walReader{dir: dir, nextSeq: fromSeq + 1, br: bufio.NewReaderSize(nil, 1<<16)}
}

// Close releases the open segment file, if any.
func (r *walReader) Close() {
	if r.f != nil {
		r.f.Close()
		r.f = nil
	}
}

// next returns the next record with sequence number ≤ gate; the payload
// is valid until the next call. io.EOF means nothing more up to gate is
// on disk yet, and io.ErrUnexpectedEOF that the last segment ends inside
// a frame header. Every other stop in the log is a *walDamage; any
// other error is a real I/O failure.
func (r *walReader) next(gate uint64) (uint64, []byte, error) {
	for r.nextSeq <= gate {
		if r.f == nil {
			if err := r.open(); err != nil {
				return 0, nil, err
			}
		}
		seq, payload, err := readFrame(r.br, &r.buf)
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			if err := r.endOfSegment(err); err != nil {
				return 0, nil, err
			}
			continue
		}
		if err == nil && seq != r.expect {
			err = fmt.Errorf("frame seq %d, want %d", seq, r.expect)
		}
		if err != nil {
			return 0, nil, r.damage(err)
		}
		r.offset += int64(walHeaderLen + len(payload))
		r.expect = seq + 1
		if seq >= r.nextSeq {
			r.nextSeq = seq + 1
			return seq, payload, nil
		}
		// A record below nextSeq (the reader started mid-segment): skip
		// it.
	}
	return 0, nil, io.EOF
}

// open opens the segment holding nextSeq: the last one starting at or
// before it. With no segment on disk yet there is nothing to read
// (io.EOF); an oldest segment starting past nextSeq means the records in
// between were deleted.
func (r *walReader) open() error {
	segs, err := listSegments(r.dir)
	if err != nil {
		return err
	}
	i := sort.Search(len(segs), func(i int) bool { return segs[i].firstSeq > r.nextSeq })
	if i == 0 {
		if len(segs) == 0 {
			return io.EOF
		}
		return &walDamage{seg: segs[0], err: errWALCompacted}
	}
	return r.openSegment(segs[i-1])
}

// openSegment makes seg the open segment, positioned after its magic.
// It is the only place a segment is opened for reading.
func (r *walReader) openSegment(seg walSegment) error {
	f, err := os.Open(seg.path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return &walDamage{seg: seg, err: errWALCompacted} // deleted between list and open
		}
		return fmt.Errorf("linkindex: wal: %w", err)
	}
	r.Close()
	r.seg, r.f, r.offset, r.expect = seg, f, 0, seg.firstSeq
	r.br.Reset(f)
	var magic [len(walMagic)]byte
	if _, err := io.ReadFull(r.br, magic[:]); err != nil || string(magic[:]) != walMagic {
		// Not a segment this build can read (torn creation or foreign
		// bytes).
		return r.damage(errors.New("segment has no magic"))
	}
	r.offset = int64(len(walMagic))
	return nil
}

// endOfSegment is the one rule for a segment whose bytes ran out; stop
// is readFrame's io.EOF (on a frame boundary) or io.ErrUnexpectedEOF
// (inside a header). With no later segment the log ends here: the
// reader rewinds to offset, so a tail still being written is re-read
// from its frame start, and returns stop. On a frame boundary, a later
// segment starting at the next expected seq is opened. Anything else is
// damage: the open segment has left the directory (compaction overtook
// the reader), a header was cut short with more log after it, or a
// segment in between is missing.
func (r *walReader) endOfSegment(stop error) error {
	segs, err := listSegments(r.dir)
	if err != nil {
		return err
	}
	i := sort.Search(len(segs), func(i int) bool { return segs[i].firstSeq > r.seg.firstSeq })
	switch {
	case i == len(segs):
		if _, err := r.f.Seek(r.offset, io.SeekStart); err != nil {
			return fmt.Errorf("linkindex: wal: %w", err)
		}
		r.br.Reset(r.f)
		return stop
	case stop == io.EOF && segs[i].firstSeq == r.expect:
		return r.openSegment(segs[i])
	case i == 0 || segs[i-1].firstSeq != r.seg.firstSeq:
		return r.damage(errWALCompacted)
	case stop == io.ErrUnexpectedEOF:
		return r.damage(fmt.Errorf("frame header cut short, %s follows", filepath.Base(segs[i].path)))
	}
	return r.damage(fmt.Errorf("next segment starts at seq %d, want %d", segs[i].firstSeq, r.expect))
}

// damage reports err at the reader's position.
func (r *walReader) damage(err error) error {
	return &walDamage{seg: r.seg, offset: r.offset, err: err}
}

// oldestWALSeq returns the first record sequence number still covered by
// the on-disk segments (the oldest a stream can resume from), or
// lastSeq+1 when the log holds no segments.
func oldestWALSeq(dir string, lastSeq uint64) uint64 {
	segs, err := listSegments(dir)
	if err != nil || len(segs) == 0 {
		return lastSeq + 1
	}
	return segs[0].firstSeq
}

// discardTornTail removes the unreplayable bytes a torn scan found: the
// cut segment is truncated to its last valid record and every segment
// after it is deleted, so the next recovery sees a clean log end and new
// appends cannot interleave with garbage.
func (s walScan) discardTornTail() error {
	if !s.Torn {
		return nil
	}
	if s.cutOffset == 0 {
		// Nothing in the file checked out (not even the magic): remove it
		// rather than leave a segment that would read as torn forever.
		if err := os.Remove(s.cut.path); err != nil {
			return fmt.Errorf("linkindex: wal: %w", err)
		}
	} else if err := os.Truncate(s.cut.path, s.cutOffset); err != nil {
		return fmt.Errorf("linkindex: wal: %w", err)
	}
	// The records past the cut can no longer be trusted to follow the
	// log order.
	segs, err := listSegments(filepath.Dir(s.cut.path))
	if err != nil {
		return err
	}
	for _, seg := range segs {
		if seg.firstSeq > s.cut.firstSeq {
			if err := os.Remove(seg.path); err != nil {
				return fmt.Errorf("linkindex: wal: %w", err)
			}
		}
	}
	return nil
}
