package linkindex

import (
	"fmt"
	"io"
	"sync/atomic"

	"genlink/internal/entity"
	"genlink/internal/matching"
	"genlink/internal/similarity"
)

// ReadSnapshot is readSnapshot, for the external tests' in-memory round
// trips. It takes RestoreOptions as RestoreFrom does.
func ReadSnapshot(r io.Reader, _ RestoreOptions) (*ShardedIndex, error) { return readSnapshot(r) }

// RecordChunk is recordChunk, so a test can size a batch to build its
// records in several chunks.
const RecordChunk = recordChunk

// WriteSnapshot writes to w the snapshot DurableIndex.Snapshot would
// write of the index.
func (ix *ShardedIndex) WriteSnapshot(w io.Writer) error {
	return ix.buildSnapshot().encode(w)
}

// CheckShardCounts reports a shard whose records and index are out of
// the lockstep installShardOps keeps them in, or per-shard counts that do
// not add up to Len: every live slot of the index must hold exactly one
// record, whose entity has that slot's ID, and every free slot none. A
// record left at a freed slot would leak a deleted entity into Entities
// and into snapshots. The index's own structure, a rule index's checked
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
			continue
		}
		records++
		id := r.Entity().ID
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

// Proposed returns how many stored entities the rule index proposes for
// the probe, over every shard: the slots holding one of its keys, but
// its own. A query verifies each against the edit bound before scoring
// it, so it is the count of those checks; 0 when the index has no edit
// bound or the probe's bound already misses the threshold.
func (ix *ShardedIndex) Proposed(probe *entity.Entity) int {
	keys := ix.source.ProbeKeys(ix.compiled.Record(probe))
	n := 0
	for _, sh := range ix.shards {
		sh.mu.RLock()
		// A rule index's enumeration before the check is its RuleIndex's.
		if rules, ok := sh.index.(interface {
			Each(self string, keys []uint64, seen *matching.SlotSet, yield func(int32) bool) bool
		}); ok {
			rules.Each(probe.ID, keys, new(matching.SlotSet), func(int32) bool {
				n++
				return true
			})
		}
		sh.mu.RUnlock()
	}
	return n
}

// Work counts what scoring does, observed through the measures a rule is
// built from (CountingLevenshtein, CountingDate): the hook
// BenchmarkQueryCoraRule reads its per-query counters from, so no
// production code counts anything. The rule index's checks against the
// edit bound run the plain measure, so they are not counted here
// (Proposed counts them).
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
