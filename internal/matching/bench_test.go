package matching

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"

	"genlink/internal/datagen"
	"genlink/internal/entity"
	"genlink/internal/similarity"
)

// coraCorpus returns n Cora-style citation records: datagen.Cora chunks
// concatenated, each chunk's IDs prefixed so they stay unique.
func coraCorpus(n int) []*entity.Entity {
	var out []*entity.Entity
	for chunk := 1; len(out) < n; chunk++ {
		for _, e := range datagen.Cora(int64(chunk)).A.Entities {
			if len(out) == n {
				break
			}
			re := e.Clone()
			re.ID = fmt.Sprintf("s%d/%s", chunk, e.ID)
			out = append(out, re)
		}
	}
	return out
}

// titleSegmentKeys is the rule index's key function the service keeps
// for the benchmark rig's rule, whose title comparison is necessary
// within K = 6 (evalengine's TestEditBoundKnownRules): the sorted, unique
// PassJoin segment keys of the entity's lowercased titles.
func titleSegmentKeys(e *entity.Entity) []uint64 {
	titles := e.Values("title")
	lower := make([]string, len(titles))
	for i, t := range titles {
		lower[i] = strings.ToLower(t)
	}
	keys := similarity.EditSegmentKeys(nil, lower, 6)
	slices.Sort(keys)
	return slices.Compact(keys)
}

// titleKeyed is a RuleIndex keyed by titleSegmentKeys, written the way
// a BlockIndex is: its BulkAdd derives the keys.
type titleKeyed struct{ *RuleIndex }

func (x titleKeyed) BulkAdd(es []*entity.Entity) []int32 {
	slots := make([]int32, len(es))
	for i, e := range es {
		slots[i] = x.Add(e.ID, titleSegmentKeys(e))
	}
	return slots
}

// writeIndex is the write half BenchmarkBlockIndexWrite drives.
type writeIndex interface {
	BulkAdd(es []*entity.Entity) []int32
	BulkRemove(ids []string) []int32
}

// BenchmarkBlockIndexWrite measures every strategy's index on the write
// path at 10,000 entities, and, as the rulekey row, a RuleIndex keyed by
// titleSegmentKeys (key derivation included). load bulk-loads the corpus into an
// empty index (what snapshot restore and recovery pay per shard) and
// reports the heap the loaded index retains per entity (heap-B/entity).
// update64 replaces 64 indexed entities per op with other versions
// through BulkRemove + BulkAdd (one Apply batch), at that size.
func BenchmarkBlockIndexWrite(b *testing.B) {
	const n, batch = 10_000, 64
	live := coraCorpus(n)
	// alt[i] is a second version of live[i]: another record's values
	// under live[i]'s ID.
	alt := make([]*entity.Entity, n)
	for i, e := range live {
		v := live[(i+n/2)%n].Clone()
		v.ID = e.ID
		alt[i] = v
	}
	type row struct {
		name     string
		newIndex func() writeIndex
	}
	var rows []row
	for _, name := range BlockerNames() {
		bl := BlockerByName(name)
		rows = append(rows, row{name, func() writeIndex { return NewBlockIndex(bl) }})
	}
	rows = append(rows, row{"rulekey", func() writeIndex { return titleKeyed{NewRuleIndex(nil)} }})
	for _, r := range rows {
		b.Run(r.name+"/load", func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				r.newIndex().BulkAdd(live)
			}
			b.ReportMetric(heapPerEntity(r.newIndex, live), "heap-B/entity")
		})
		b.Run(r.name+"/update64", func(b *testing.B) {
			bi := r.newIndex()
			cur, next := append([]*entity.Entity(nil), live...), append([]*entity.Entity(nil), alt...)
			bi.BulkAdd(cur)
			off := 0
			ids := make([]string, batch)
			b.ReportAllocs()
			for b.Loop() {
				olds, news := cur[off:off+batch], next[off:off+batch]
				for i, e := range olds {
					ids[i] = e.ID
				}
				bi.BulkRemove(ids)
				bi.BulkAdd(news)
				for i := range olds {
					olds[i], news[i] = news[i], olds[i]
				}
				if off += batch; off+batch > n {
					off = 0
				}
			}
		})
	}
}

// heapPerEntity is the heap an index from newIndex retains per entity
// once es is loaded: the live heap after GC with the index kept alive,
// minus the live heap before it was built. The entities themselves are
// live throughout, so only the index's own structures and keys count.
func heapPerEntity(newIndex func() writeIndex, es []*entity.Entity) float64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	bi := newIndex()
	bi.BulkAdd(es)
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(bi)
	return float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(len(es))
}
