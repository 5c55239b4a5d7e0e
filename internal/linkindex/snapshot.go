package linkindex

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"genlink/internal/entity"
	"genlink/internal/matching"
	"genlink/internal/rule"
)

// SnapshotVersion is the one format version a durable index writes and
// RestoreFrom accepts; any other version is rejected instead of guessed
// at.
//
// A snapshot is a stream of JSON values separated by newlines: one
// header (version, shard count, blocker, threshold, rule, and the number
// of sections that follow) and then the sections, each holding a
// contiguous run of one shard's slice of the corpus sorted by ID. A
// writer splits each shard into max(1, GOMAXPROCS/shards) sections, so a
// one-shard index still decodes and installs on every core; a reader
// takes any count from one section per shard up. Every restore rebuilds
// the header's shard count: a blocker's answers depend on it. Sections
// are independently decodable, so both sides of the round trip
// parallelize: writing marshals every section concurrently and restoring
// decodes and index-builds sections concurrently. Block structures are
// NOT persisted; they are deterministic functions of (blocker, corpus,
// shard count) and are rebuilt through the bulk-load path on restore,
// which is both simpler and robust against block-structure layout
// changes between versions.
const SnapshotVersion = 2

// maxSnapshotSections rejects absurd section counts decoded from a
// corrupt header before they turn into a giant allocation.
const maxSnapshotSections = 1 << 20

// errSnapshotRule marks a snapshot refused for its rule (null, or failing
// rule.Validate) or for a blocker no registry name resolves, rather than
// for damaged bytes. NewDurable checks both before it writes, so such a
// snapshot comes from a writer with a looser check; recovery and a
// follower's bootstrap leave it in place instead of quarantining it as
// corrupt.
var errSnapshotRule = errors.New("snapshot refused")

// snapshotHeader is the first JSON value of a snapshot; the corpus
// follows in Sections section values.
type snapshotHeader struct {
	Version      int        `json:"version"`
	Created      string     `json:"created,omitempty"`
	Shards       int        `json:"shards"`
	Blocker      string     `json:"blocker,omitempty"`
	Threshold    float64    `json:"threshold"`
	MaxBlockSize int        `json:"max_block_size"`
	Rule         *rule.Rule `json:"rule"`
	// Sections counts the section values following the header.
	Sections int `json:"sections,omitempty"`
}

// snapshotSection is a run of one shard's slice of the corpus.
type snapshotSection struct {
	Entities []*entity.Entity `json:"entities"`
}

// snapshotCapture is an in-memory snapshot: the header plus every
// section, captured under the shard locks and serialized later.
type snapshotCapture struct {
	header   snapshotHeader
	sections []snapshotSection
}

// buildSnapshot captures the snapshot state: per shard, the corpus slice
// (entity pointers — immutable once stored, so the capture stays
// consistent while it is serialized later) sorted by ID and cut into
// max(1, GOMAXPROCS/shards) sections of near-equal size, plus the rule
// and the options. Each shard is read under its lock; see the isolation
// notes on ShardedIndex for cross-shard semantics under concurrent
// writes.
func (ix *ShardedIndex) buildSnapshot() *snapshotCapture {
	per := max(1, runtime.GOMAXPROCS(0)/len(ix.shards))
	snap := &snapshotCapture{
		header: snapshotHeader{
			Version:      SnapshotVersion,
			Created:      time.Now().UTC().Format(time.RFC3339),
			Shards:       len(ix.shards),
			Blocker:      matching.RegistryName(ix.opts.Blocker),
			Threshold:    ix.opts.Threshold,
			MaxBlockSize: ix.opts.MaxBlockSize,
			Rule:         ix.rule,
			Sections:     per * len(ix.shards),
		},
		sections: make([]snapshotSection, 0, per*len(ix.shards)),
	}
	for _, sh := range ix.shards {
		ents := sh.entities()
		matching.SortByID(ents)
		for j := range per {
			snap.sections = append(snap.sections, snapshotSection{Entities: ents[j*len(ents)/per : (j+1)*len(ents)/per]})
		}
	}
	return snap
}

// encode serializes the capture to w: the header value, then each
// section value, newline-separated. Sections are marshaled in parallel
// (they are independent by construction) and written in shard order.
func (snap *snapshotCapture) encode(w io.Writer) error {
	blobs := make([][]byte, 1+len(snap.sections))
	errs := make([]error, len(blobs))
	parallel(len(blobs), func(i int) {
		if i == 0 {
			blobs[0], errs[0] = json.Marshal(&snap.header)
		} else {
			blobs[i], errs[i] = json.Marshal(&snap.sections[i-1])
		}
	})
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("linkindex: snapshot: %w", err)
		}
		if _, err := w.Write(blobs[i]); err != nil {
			return fmt.Errorf("linkindex: snapshot: %w", err)
		}
		if _, err := w.Write([]byte{'\n'}); err != nil {
			return fmt.Errorf("linkindex: snapshot: %w", err)
		}
	}
	return nil
}

// snapshotWriteHook, when a test sets it, runs before writeSnapshotFile
// touches the disk — tests block in it to hold a snapshot write open
// while more records are logged.
var snapshotWriteHook func(path string)

// writeSnapshotFile writes the snapshot encode produces to path
// atomically (temp file + fsync + rename + directory fsync).
func writeSnapshotFile(path string, encode func(io.Writer) error) error {
	if snapshotWriteHook != nil {
		snapshotWriteHook(path)
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("linkindex: snapshot: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if err := encode(tmp); err != nil {
		tmp.Close()
		return err
	}
	// Flush data before the rename becomes visible: on journaled
	// filesystems a rename can be made durable before the file's blocks,
	// and a power cut would leave an empty file where the previous good
	// snapshot was.
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("linkindex: snapshot: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("linkindex: snapshot: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("linkindex: snapshot: %w", err)
	}
	// Make the rename itself durable: without a directory fsync the new
	// directory entry may not survive a power cut even though the file
	// data would.
	if err := syncDir(dir); err != nil {
		return fmt.Errorf("linkindex: snapshot: %w", err)
	}
	return nil
}

// RestoreOptions has no fields: a snapshot restores from its own header
// alone (shard count, blocker, threshold, cap and rule). The type stays
// only because the benchmark rig (benchmark/layers.go) calls
// RestoreFrom(path, RestoreOptions{}), and the rig is kept unchanged so
// its runs stay comparable across commits.
type RestoreOptions struct{}

// readSnapshot rebuilds an index from a snapshot: the snapshot is
// decoded and checked (decodeSnapshot), the rule recompiled, the options
// and shard count reconstructed, and the block structures and scoring
// records rebuilt by installing the corpus sections in parallel.
func readSnapshot(r io.Reader) (*ShardedIndex, error) {
	snap, err := decodeSnapshot(r)
	if err != nil {
		return nil, err
	}
	ix := NewSharded(snap.header.Rule, snap.header.Shards, matching.Options{
		Threshold:    snap.header.Threshold,
		MaxBlockSize: snap.header.MaxBlockSize,
		Blocker:      snap.blocker,
	})
	// Each section installs through Apply. A section holds one shard's
	// entities, so its Apply is one group. A valid snapshot's sections
	// hold disjoint ID sets, so concurrent installs into the same shard
	// commute.
	parallel(len(snap.sections), func(i int) {
		ix.Apply(Batch{Upserts: snap.sections[i]})
	})
	return ix, nil
}

// decodedSnapshot is a snapshot that passed every check restoring makes:
// the header, the resolved blocker and each section's validated corpus
// slice, in section order.
type decodedSnapshot struct {
	header   snapshotHeader
	blocker  matching.Blocker
	sections [][]*entity.Entity
}

// decodeSnapshot reads and checks a snapshot without building an index:
// the version, the rule (present, and valid — rule.ParseJSON runs
// rule.Validate), the blocker's registry name, the section and shard
// counts and every entity's ID. A rule or blocker it cannot rebuild is
// an errSnapshotRule refusal. readSnapshot installs the result; a
// follower re-bootstrapping from a leader snapshot diff-applies it into
// its live index instead.
func decodeSnapshot(r io.Reader) (*decodedSnapshot, error) {
	dec := json.NewDecoder(r)
	// The rule is held raw until the version is checked, so a rule error
	// (errSnapshotRule) is told apart from a header that does not decode.
	var raw struct {
		snapshotHeader
		Rule json.RawMessage `json:"rule"`
	}
	if err := dec.Decode(&raw); err != nil {
		return nil, fmt.Errorf("linkindex: restore: %w", err)
	}
	hdr := raw.snapshotHeader
	if hdr.Version != SnapshotVersion {
		return nil, fmt.Errorf("linkindex: restore: snapshot version %d, this build reads version %d only", hdr.Version, SnapshotVersion)
	}
	rl, err := rule.ParseJSON(raw.Rule)
	if err != nil {
		return nil, fmt.Errorf("linkindex: restore: %w: %w", errSnapshotRule, err)
	}
	hdr.Rule = rl
	bl := matching.BlockerByName(hdr.Blocker)
	if bl == nil {
		return nil, fmt.Errorf("linkindex: restore: %w: blocker %q is not a registry strategy", errSnapshotRule, hdr.Blocker)
	}
	if hdr.Sections < 0 || hdr.Sections > maxSnapshotSections {
		return nil, fmt.Errorf("linkindex: restore: snapshot section count %d out of range", hdr.Sections)
	}
	// Every writer cuts at least one section per shard, so a count
	// outside 1..Sections is damage, refused before it sizes an index.
	if hdr.Shards < 1 || hdr.Shards > hdr.Sections {
		return nil, fmt.Errorf("linkindex: restore: snapshot shard count %d out of range for %d sections", hdr.Shards, hdr.Sections)
	}
	// Slurp the raw section values in order (a cheap syntactic scan),
	// then decode them in parallel — entity unmarshaling dominates.
	raws := make([]json.RawMessage, hdr.Sections)
	for i := range raws {
		if err := dec.Decode(&raws[i]); err != nil {
			return nil, fmt.Errorf("linkindex: restore: section %d: %w", i, err)
		}
	}
	snap := &decodedSnapshot{header: hdr, blocker: bl, sections: make([][]*entity.Entity, len(raws))}
	errs := make([]error, len(raws))
	parallel(len(raws), func(i int) {
		var sec snapshotSection
		if err := json.Unmarshal(raws[i], &sec); err != nil {
			errs[i] = fmt.Errorf("linkindex: restore: section %d: %w", i, err)
			return
		}
		if err := validateSnapshotEntities(sec.Entities); err != nil {
			errs[i] = fmt.Errorf("linkindex: restore: section %d: %w", i, err)
			return
		}
		snap.sections[i] = sec.Entities
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return snap, nil
}

// validateSnapshotEntities rejects corpus entries a valid writer can
// never produce before they reach the index. Callers wrap the error with
// their location context.
func validateSnapshotEntities(ents []*entity.Entity) error {
	for i, e := range ents {
		if e == nil || e.ID == "" {
			return fmt.Errorf("entity %d has no id", i)
		}
	}
	return nil
}

// RestoreFrom rebuilds an index from a snapshot file a durable index
// wrote (NewDurable's genesis snapshot, DurableIndex.Snapshot, or a
// follower's copy of its leader's), in the header's shard count and
// blocker.
func RestoreFrom(path string, _ RestoreOptions) (*ShardedIndex, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("linkindex: restore: %w", err)
	}
	defer f.Close()
	return readSnapshot(f)
}
