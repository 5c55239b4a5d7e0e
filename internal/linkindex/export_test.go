package linkindex

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"genlink/internal/entity"
	"genlink/internal/matching"
	"genlink/internal/similarity"
)

// ReadSnapshot is readSnapshot, for the external tests' in-memory round
// trips. It takes RestoreOptions as RestoreFrom does.
func ReadSnapshot(r io.Reader, _ RestoreOptions) (*ShardedIndex, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return readSnapshot(data)
}

// RecoverSteps times the steps of every restore and recovery, through
// restoreStepHook, until the returned stop, which gives each step's
// total: "read" the snapshot file, "scan" its header and cut its
// sections apart, "decode" them, "install" them into an index and
// "replay" the log tail. Restores must not run concurrently meanwhile.
func RecoverSteps() (stop func() map[string]time.Duration) {
	steps := map[string]time.Duration{}
	var step string
	var start time.Time
	restoreStepHook = func(next string) {
		now := time.Now()
		if step != "" {
			steps[step] += now.Sub(start)
		}
		step, start = next, now
	}
	return func() map[string]time.Duration {
		restoreStepHook = nil
		return steps
	}
}

// RecordChunk is recordChunk, so a test can size a batch to build its
// records in several chunks.
const RecordChunk = recordChunk

// WriteSnapshot writes to w the snapshot DurableIndex.Snapshot would
// write of the index.
func (ix *ShardedIndex) WriteSnapshot(w io.Writer) error {
	return ix.buildSnapshot().encode(w)
}

// CheckShardCounts reports a shard whose records, stored bytes and index
// are out of the lockstep installShardOps keeps them in, or per-shard
// counts that do not add up to Len: every live slot of the index must
// hold exactly one record, with that slot's ID, and canonical bytes of an
// entity with that ID, and every free slot neither. A record or bytes
// left at a freed slot would leak a deleted entity into Entities and
// into snapshots. The index's own structure, a rule index's checked
// values included, is matching's to check (TestRuleIndexVerifiedDifferential).
func (ix *ShardedIndex) CheckShardCounts() error {
	total := 0
	for i, sh := range ix.shards {
		sh.mu.RLock()
		err := ix.checkRecords(sh)
		indexed := sh.index.Len()
		sh.mu.RUnlock()
		if err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
		total += indexed
	}
	if total != ix.Len() {
		return fmt.Errorf("shards hold %d entities, Len() = %d", total, ix.Len())
	}
	return nil
}

// checkRecords is CheckShardCounts for one shard, under its lock. A
// record at slot s whose ID the index places at s occupies a distinct
// live slot, so when every record passes and they number Len(), the
// live slots are exactly the ones holding records.
func (ix *ShardedIndex) checkRecords(sh *shard) error {
	records := 0
	for s, r := range sh.records {
		if r == nil {
			if sh.json[s] != "" {
				return fmt.Errorf("free slot %d holds stored bytes %s", s, sh.json[s])
			}
			continue
		}
		records++
		id := r.ID()
		if e := decodeStored(sh.json[s]); e == nil || e.ID != id {
			return fmt.Errorf("slot %d holds the record of %q and the stored bytes %q", s, id, sh.json[s])
		}
		at, ok := sh.index.Slot(id)
		if !ok {
			return fmt.Errorf("slot %d holds the record of %q, which is not indexed", s, id)
		}
		if at != int32(s) {
			return fmt.Errorf("slot %d holds the record of %q, which the block index has at slot %d", s, id, at)
		}
	}
	if indexed := sh.index.Len(); records != indexed {
		return fmt.Errorf("%d records, %d entities in the block index", records, indexed)
	}
	return nil
}

// Funnel counts the rule index's check of one probe's candidates
// (EditBound.Within), over every shard.
type Funnel struct {
	// Proposed counts the slots holding one of the probe's keys, but its
	// own: the candidates the check reads.
	Proposed int
	// SketchRejected counts the proposed slots every value pair of which
	// the letter-count sketch puts further than K apart
	// (similarity.SketchBound), rejected without reading a value.
	SketchRejected int
	// Checked counts the value pairs the bounded distance ran on: those
	// the sketch admits, of rune lengths within K, up to a slot's first
	// pair within K.
	Checked int
	// Mismatched counts the proposed slots on which the replay's verdict
	// differs from the check's own; anything but 0 means the replay no
	// longer describes the check.
	Mismatched int
}

// Funnel returns the check's counts for the probe, replaying
// similarity.EditWithin's order on the probe's candidates, and holds the
// replay's verdict on each to EditBound.Within's: all zero when the
// index has no edit bound or the probe's bound already misses the
// threshold.
func (ix *ShardedIndex) Funnel(probe *entity.Entity) Funnel {
	var f Funnel
	eb, ok := ix.compiled.EditBound(ix.opts.Threshold)
	if !ok {
		return f
	}
	rec := ix.compiled.Record(probe)
	keys := ix.source.ProbeKeys(rec)
	probeValues := eb.Probe(rec)
	within := eb.Within(rec)
	lev := similarity.Levenshtein()
	for _, sh := range ix.shards {
		sh.mu.RLock()
		// A rule index's enumeration before the check is its RuleIndex's.
		rules := sh.index.(interface {
			Each(self string, keys []uint64, seen *matching.SlotSet, yield func(int32) bool) bool
		})
		rules.Each(probe.ID, keys, new(matching.SlotSet), func(s int32) bool {
			f.Proposed++
			stored := eb.Indexed(sh.records[s])
			admitted, found := false, false
		pairs:
			for _, b := range stored {
				for _, a := range probeValues {
					sa, sb := similarity.NewEditShape(a), similarity.NewEditShape(b)
					if similarity.SketchBound(sa.Sketch, sb.Sketch) > eb.K {
						continue
					}
					admitted = true
					if gap := sa.Runes - sb.Runes; max(gap, -gap) > int32(eb.K) {
						continue
					}
					f.Checked++
					if lev.Distance([]string{a}, []string{b}) <= float64(eb.K) {
						found = true
						break pairs
					}
				}
			}
			if !admitted {
				f.SketchRejected++
			}
			if found != within(similarity.NewEditSet(stored)) {
				f.Mismatched++
			}
			return true
		})
		sh.mu.RUnlock()
	}
	return f
}

// Work counts what scoring does, observed through the measures a rule is
// built from (CountingLevenshtein, CountingDate): the hook
// BenchmarkQueryCoraRule reads its per-query counters from, so no
// production code counts anything. The rule index's checks against the
// edit bound run the plain measure, so they are not counted here
// (Funnel counts them).
type Work struct {
	// Completed counts the candidates scored to completion: edit
	// distances that came back exact, at most the bound scoring asked
	// for.
	Completed atomic.Int64
	// EditDists counts the edit distances scoring ran, one per candidate.
	EditDists atomic.Int64
	// Parses counts the values a parsing measure parsed.
	Parses atomic.Int64
}

// Reset zeroes the counters.
func (w *Work) Reset() {
	w.Completed.Store(0)
	w.EditDists.Store(0)
	w.Parses.Store(0)
}

// CountingLevenshtein is similarity.Levenshtein counting into w.
func CountingLevenshtein(w *Work) similarity.Measure {
	return countedEdit{Measure: similarity.Levenshtein(), w: w}
}

// CountingDate is similarity.Date counting into w.
func CountingDate(w *Work) similarity.Measure {
	return countedParse{Prepared: similarity.Date().(similarity.Prepared), w: w}
}

type countedEdit struct {
	similarity.Measure
	w *Work
}

// Within wraps the edit distance's bounded form for one pair of value
// sets, which the scoring engine runs for a probe's first candidate.
func (m countedEdit) Within(a, b []string, k float64) float64 {
	m.w.EditDists.Add(1)
	d := m.Measure.(interface {
		Within(a, b []string, k float64) float64
	}).Within(a, b, k)
	if d <= k {
		m.w.Completed.Add(1)
	}
	return d
}

// Pattern wraps the edit distance's bounded form, which the scoring
// engine finds by this method.
func (m countedEdit) Pattern(values []string) func([]string, float64) float64 {
	within := m.Measure.(interface {
		Pattern([]string) func([]string, float64) float64
	}).Pattern(values)
	return func(text []string, k float64) float64 {
		m.w.EditDists.Add(1)
		d := within(text, k)
		if d <= k {
			m.w.Completed.Add(1)
		}
		return d
	}
}

type countedParse struct {
	similarity.Prepared
	w *Work
}

func (m countedParse) Distance(a, b []string) float64 {
	m.w.Parses.Add(int64(len(a) + len(b)))
	return m.Prepared.Distance(a, b)
}

func (m countedParse) NewColumn(n int) similarity.Column {
	return countedColumn{Column: m.Prepared.NewColumn(n), w: m.w}
}

type countedColumn struct {
	similarity.Column
	w *Work
}

func (c countedColumn) Prepare(i int, values []string) {
	c.w.Parses.Add(int64(len(values)))
	c.Column.Prepare(i, values)
}

func (c countedColumn) Distance(i int, other similarity.Column, j int) float64 {
	return c.Column.Distance(i, other.(countedColumn).Column, j)
}
