package linkindex

import "sync"

// This file implements the shard-parallel replay pipeline every restore
// feeds its snapshot's sections through (restoreSnapshot, in runs of
// restoreChunk entities) and Recover then the log tail, behind the
// sections: the read+CRC work (replayWAL's walReader) and the decode
// (replayWAL's callback) stay in the recovering goroutine, which hands
// the partitioned per-shard ops to each shard's apply stages over
// bounded channels, so decoding runs ahead of index building, and the
// first records decode while the last sections install. A shard has two
// stages, each its own
// goroutine: buildRecords builds a group's records on every core (in
// chunks of recordChunk) while installShardOps installs the previous
// group under the shard lock. So a one-shard index replays on every core
// too, although only one goroutine at a time holds its lock.
//
// Soundness: recovery correctness requires apply order ≡ log order per
// entity ID. An ID hashes to exactly one shard, every record's ops for
// that shard flow through that shard's channels in log order, and one
// builder and then one installer drain them in order — so per-ID install
// order is exactly log order, while different shards (disjoint ID sets)
// apply concurrently. partitionOps is the same batch-resolution step Apply
// uses, so within-record semantics (last upsert wins, delete beats
// upsert) are shared, not reimplemented. The recovery-equivalence
// differential test pins the pipeline against plain sequential Apply of
// the covered batches on a fresh index. A snapshot's sections hold
// disjoint ID sets, so the order their runs are fed in does not matter.
//
// The pipeline pays for being a second way into the shards. A prototype
// that sent the log tail through plain Apply, and decoded every snapshot
// section before one Apply, measured the rig's ingest-durable recovery
// time (aux_ms, 10,000 entities, kill -9, 2-core Xeon) at a median of
// 547.5 ms against 487.1 ms here, slower in 6 of 6 alternating pairs
// (seeds 1–6).

// replayQueueDepth bounds each shard's decoded-but-unapplied backlog so
// the decode-ahead reader cannot buffer an arbitrarily long log tail in
// memory when one shard's apply stages fall behind.
const replayQueueDepth = 64

// parallelReplayer fans decoded WAL batches out to per-shard apply
// stages: a builder and an installer goroutine per shard. Feed it from a
// single goroutine via apply; wait closes the queues and blocks until
// every queued op is installed.
type parallelReplayer struct {
	ix  *ShardedIndex
	chs []chan *shardOps
	wg  sync.WaitGroup
}

func startReplayer(ix *ShardedIndex) *parallelReplayer {
	r := &parallelReplayer{ix: ix, chs: make([]chan *shardOps, ix.Shards())}
	for si := range r.chs {
		ch := make(chan *shardOps, replayQueueDepth)
		built := make(chan *shardOps, 1)
		r.chs[si] = ch
		r.wg.Add(2)
		go func() {
			defer r.wg.Done()
			defer close(built)
			for g := range ch {
				r.ix.buildRecords(g)
				built <- g
			}
		}()
		go func() {
			defer r.wg.Done()
			for g := range built {
				r.ix.installShardOps(g)
			}
		}()
	}
	return r
}

// apply partitions one decoded record and enqueues its per-shard ops.
// Records must be fed in log order from one goroutine.
func (r *parallelReplayer) apply(b Batch) {
	for _, g := range partitionOps(b, len(r.ix.shards)) {
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
