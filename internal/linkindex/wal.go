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

// FsyncPolicy selects when the WAL makes appended records durable.
type FsyncPolicy int

const (
	// FsyncBatch fsyncs before acknowledging every append: an
	// acknowledged batch survives power loss. The default, and the
	// slowest.
	FsyncBatch FsyncPolicy = iota
	// FsyncIntervalPolicy group-commits: appends return after the
	// buffered write, and a background flusher fsyncs every Interval.
	// A crash can lose up to one interval of acknowledged batches.
	FsyncIntervalPolicy
	// FsyncOff never fsyncs explicitly; the OS page cache decides.
	// A process crash (the file is already in the page cache) loses at
	// most the buffered tail; a power cut can lose everything since the
	// last snapshot.
	FsyncOff
)

// String returns the flag-friendly name of the policy.
func (p FsyncPolicy) String() string {
	switch p {
	case FsyncBatch:
		return "batch"
	case FsyncIntervalPolicy:
		return "interval"
	case FsyncOff:
		return "off"
	}
	return fmt.Sprintf("FsyncPolicy(%d)", int(p))
}

// FsyncPolicyByName resolves a flag value ("batch", "interval", "off")
// to its policy. It reports false for unknown names.
func FsyncPolicyByName(name string) (FsyncPolicy, bool) {
	switch name {
	case "batch":
		return FsyncBatch, true
	case "interval":
		return FsyncIntervalPolicy, true
	case "off":
		return FsyncOff, true
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
// segment replay, the replication cursor and the follower's stream
// reader. It trusts nothing it has not verified: the length is bounded,
// the payload grows in buf from the bytes that actually arrive (a
// corrupt header claiming 1 GiB must not allocate 1 GiB before the CRC
// can reject it), and the CRC is checked before the frame is returned.
// The payload aliases buf. A header that stops short comes back bare, as
// io.ReadFull reports it: io.EOF on a frame boundary, else
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
	Interval     time.Duration
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
	if _, err := bw.WriteString(walMagic); err != nil {
		f.Close()
		return fmt.Errorf("linkindex: wal: %w", err)
	}
	// Make the segment's direntry durable: under FsyncBatch every record
	// fsync would otherwise be futile if a power cut erased the file
	// itself. Rotation is rare, so one dir fsync per segment is cheap.
	if w.opts.Fsync != FsyncOff {
		if err := syncDir(w.dir); err != nil {
			f.Close()
			return fmt.Errorf("linkindex: wal: %w", err)
		}
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
	switch w.opts.Fsync {
	case FsyncBatch:
		if err := w.flushLocked(true); err != nil {
			return 0, err
		}
	case FsyncIntervalPolicy:
		// The durability contract says acknowledged records reach the OS
		// immediately (only the disk fsync is deferred to the group
		// commit): flush the user-space buffer now, so a process crash —
		// as opposed to a power cut — loses nothing acknowledged.
		if err := w.flushLocked(false); err != nil {
			return 0, err
		}
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
	if sync && w.opts.Fsync != FsyncOff {
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

// Flush drains the user-space buffer to the OS without fsyncing, so the
// segment files hold every acknowledged record. The replication stream
// calls this before reading the active segment: under FsyncOff appends
// may otherwise sit in the bufio buffer indefinitely.
func (w *wal) Flush() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return errWALClosed
	}
	return w.flushLocked(false)
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
// clean shutdown is durable even under FsyncOff.
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
// order. Files that do not parse as segment names are ignored.
func listSegments(dir string) ([]walSegment, error) {
	names, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("linkindex: wal: %w", err)
	}
	var segs []walSegment
	for _, de := range names {
		var first uint64
		if n, err := fmt.Sscanf(de.Name(), "wal-%016d.seg", &first); n == 1 && err == nil {
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
	// Segments counts the segment files present (replayed or not).
	Segments int
	// Torn reports that the scan stopped at a corrupt or truncated
	// record instead of the end of the log.
	Torn bool
	// tornPath/tornOffset locate the torn tail: the segment holding it
	// and the byte offset of its last valid record end. later holds the
	// paths of segments after the torn one, whose records are
	// unreplayable (their ordering can no longer be trusted).
	tornPath   string
	tornOffset int64
	later      []string
}

// replayWAL streams every record with sequence number > fromSeq to fn,
// in order. It stops cleanly — never panics, never errors — at the first
// torn or corrupt record: a truncated header or payload, a CRC mismatch,
// a non-contiguous sequence number, or an fn error (an undecodable
// payload), reporting the stop through walScan.Torn. Real I/O errors
// (an unreadable directory) are returned as err.
func replayWAL(dir string, fromSeq uint64, fn func(seq uint64, payload []byte) error) (walScan, error) {
	segs, err := listSegments(dir)
	if err != nil {
		return walScan{}, err
	}
	scan := walScan{LastSeq: fromSeq, Segments: len(segs)}
	for i, seg := range segs {
		// A segment is fully covered by fromSeq when the next segment
		// starts at or below fromSeq+1; skip reading it entirely.
		if i+1 < len(segs) && segs[i+1].firstSeq <= fromSeq+1 {
			continue
		}
		// A segment starting past the next expected sequence number means
		// a segment in between is missing (a partial directory copy, a
		// manual deletion): the records from here on cannot be trusted to
		// follow the log order. Stop cleanly, discarding them.
		if seg.firstSeq > scan.LastSeq+1 {
			scan.Torn = true
			scan.tornPath = seg.path
			scan.tornOffset = 0
			for _, later := range segs[i+1:] {
				scan.later = append(scan.later, later.path)
			}
			return scan, nil
		}
		stop, err := replaySegment(seg, fromSeq, &scan, fn)
		if err != nil {
			return scan, err
		}
		if stop {
			for _, later := range segs[i+1:] {
				scan.later = append(scan.later, later.path)
			}
			return scan, nil
		}
	}
	return scan, nil
}

// replaySegment replays one segment into fn, updating scan. It reports
// stop=true when the scan must not continue into later segments (a torn
// or corrupt record was found).
func replaySegment(seg walSegment, fromSeq uint64, scan *walScan, fn func(seq uint64, payload []byte) error) (bool, error) {
	f, err := os.Open(seg.path)
	if err != nil {
		return false, fmt.Errorf("linkindex: wal: %w", err)
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 1<<16)

	torn := func(validEnd int64) {
		scan.Torn = true
		scan.tornPath = seg.path
		scan.tornOffset = validEnd
	}

	magic := make([]byte, len(walMagic))
	if _, err := io.ReadFull(r, magic); err != nil || string(magic) != walMagic {
		// Not a segment this build can read (torn creation or foreign
		// bytes): treat the whole file as a torn tail.
		torn(0)
		return true, nil
	}
	offset := int64(len(walMagic))
	expect := seg.firstSeq
	var buf bytes.Buffer
	for {
		seq, payload, err := readFrame(r, &buf)
		if err == io.EOF {
			return false, nil // clean end of segment
		}
		if err != nil || seq != expect {
			// Truncated header or payload, absurd length, CRC mismatch or a
			// sequence gap: the valid log ends before this record.
			torn(offset)
			return true, nil
		}
		if seq > fromSeq {
			if err := fn(seq, payload); err != nil {
				// CRC-valid but undecodable: a format drift, not a torn
				// write — still stop cleanly rather than guess.
				torn(offset)
				return true, nil
			}
			scan.LastSeq = seq
			scan.Records++
		}
		offset += int64(walHeaderLen + len(payload))
		expect = seq + 1
	}
}

// errWALCompacted reports that a record a reader needs has been deleted
// by snapshot compaction: the reader fell behind the retention window
// and must re-bootstrap from a snapshot instead of the log.
var errWALCompacted = errors.New("linkindex: wal: records compacted away; re-bootstrap from a snapshot")

// walCursor reads committed records sequentially from the segment files,
// decoupled from the appender: it opens segments read-only and validates
// every record (readFrame's length bound and CRC, then sequence
// contiguity) as it goes — this is the leader-side read path of the
// replication stream. The
// appender may keep writing while a cursor reads; callers gate each read
// on a sequence number they know is flushed (LastSeq, then Flush), so
// the cursor never parses a half-written tail.
type walCursor struct {
	dir     string
	nextSeq uint64 // sequence number of the next record to return
	f       *os.File
	r       *io.SectionReader // f as an io.Reader, re-positioned to offset before every read
	offset  int64             // byte offset of the next unread byte in f
	expect  uint64            // sequence number of the record at offset
	buf     bytes.Buffer      // reusable payload buffer
}

// newWALCursor positions a cursor after fromSeq: the first record it
// returns is fromSeq+1.
func newWALCursor(dir string, fromSeq uint64) *walCursor {
	return &walCursor{dir: dir, nextSeq: fromSeq + 1}
}

// Close releases the open segment file, if any.
func (c *walCursor) Close() {
	if c.f != nil {
		c.f.Close()
		c.f = nil
	}
}

// seek opens the segment holding nextSeq, leaving c.f nil when no
// on-disk segment can hold it yet (the record has not been appended).
// It returns errWALCompacted when the segment was deleted by compaction.
func (c *walCursor) seek() error {
	segs, err := listSegments(c.dir)
	if err != nil {
		return err
	}
	idx := -1
	for i, s := range segs {
		if s.firstSeq <= c.nextSeq {
			idx = i
		} else {
			break
		}
	}
	if idx == -1 {
		if len(segs) > 0 {
			// The oldest surviving segment starts past nextSeq: the records
			// in between are gone.
			return errWALCompacted
		}
		return nil
	}
	f, err := os.Open(segs[idx].path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return errWALCompacted // deleted between list and open
		}
		return fmt.Errorf("linkindex: wal: %w", err)
	}
	magic := make([]byte, len(walMagic))
	if _, err := io.ReadFull(f, magic); err != nil || string(magic) != walMagic {
		f.Close()
		return fmt.Errorf("linkindex: wal: segment %s has no magic", segs[idx].path)
	}
	c.f, c.r = f, io.NewSectionReader(f, 0, math.MaxInt64)
	c.offset, c.expect = int64(len(walMagic)), segs[idx].firstSeq
	return nil
}

// next returns the next committed record with sequence number ≤ gate.
// ok=false means no such record is readable yet (the caller should wait
// for appends and retry); errWALCompacted means the cursor's position
// was compacted away. The returned payload is only valid until the next
// call.
func (c *walCursor) next(gate uint64) (seq uint64, payload []byte, ok bool, err error) {
	for {
		if c.nextSeq > gate {
			return 0, nil, false, nil
		}
		if c.f == nil {
			if err := c.seek(); err != nil {
				return 0, nil, false, err
			}
			if c.f == nil {
				return 0, nil, false, nil
			}
		}
		// Read by offset, not by position: a frame the appender has not
		// finished is re-read from its start on the next call. (Seek to a
		// non-negative absolute offset cannot fail.)
		_, _ = c.r.Seek(c.offset, io.SeekStart)
		seq, payload, rerr := readFrame(c.r, &c.buf)
		if rerr == io.EOF || rerr == io.ErrUnexpectedEOF {
			// Clean or partial end of this segment. Every record up to
			// gate is fully flushed, so a record we still need lives in
			// the segment the appender rotated to: re-seek there. If the
			// re-seek lands on the same segment (rotation mid-flight),
			// report "nothing yet" and let the caller retry.
			again, aerr := c.reseek()
			if aerr != nil {
				return 0, nil, false, aerr
			}
			if !again {
				return 0, nil, false, nil
			}
			continue
		}
		if rerr != nil {
			return 0, nil, false, fmt.Errorf("linkindex: wal: record at offset %d: %w", c.offset, rerr)
		}
		if seq != c.expect {
			return 0, nil, false, fmt.Errorf("linkindex: wal: corrupt record at offset %d (seq %d, want seq %d)",
				c.offset, seq, c.expect)
		}
		c.offset += int64(walHeaderLen + len(payload))
		c.expect = seq + 1
		if seq >= c.nextSeq {
			c.nextSeq = seq + 1
			return seq, payload, true, nil
		}
		// A record below nextSeq (re-positioned cursor): skip it.
	}
}

// reseek closes the current segment and re-seeks for nextSeq, reporting
// whether the cursor moved to a different position worth re-reading.
func (c *walCursor) reseek() (bool, error) {
	segs, err := listSegments(c.dir)
	if err != nil {
		return false, err
	}
	for _, s := range segs {
		if s.firstSeq == c.nextSeq {
			c.Close()
			return true, c.seek()
		}
	}
	return false, nil
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
// torn segment is truncated to its last valid record and every later
// segment is deleted, so the next recovery sees a clean log end and new
// appends cannot interleave with garbage.
func (s walScan) discardTornTail() error {
	if !s.Torn {
		return nil
	}
	if s.tornOffset == 0 {
		// Nothing in the file checked out (not even the magic): remove it
		// rather than leave a zero-byte segment that would read as torn
		// forever.
		if err := os.Remove(s.tornPath); err != nil {
			return fmt.Errorf("linkindex: wal: %w", err)
		}
	} else if err := os.Truncate(s.tornPath, s.tornOffset); err != nil {
		return fmt.Errorf("linkindex: wal: %w", err)
	}
	for _, path := range s.later {
		if err := os.Remove(path); err != nil {
			return fmt.Errorf("linkindex: wal: %w", err)
		}
	}
	return nil
}
