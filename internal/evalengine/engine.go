// Package evalengine is the compiled rule-evaluation engine behind fitness
// scoring and rule execution.
//
// Fitness evaluation dominates GenLink's runtime: every candidate rule of
// every generation is scored on all reference links (Section 5.2 of the
// paper). Interpreting the operator tree per (rule, pair) re-fetches
// property values, re-runs transformation chains and re-computes distances
// even though elitism and crossover make populations share most subtrees
// and each entity appears in many pairs. This package removes that
// redundancy in three layers:
//
//	rule ──Compile──▶ flat post-order programs (compile.go)
//	                  over an interned, column-oriented entity table
//	                  (table.go), evaluated batch-wise with
//	                  generation-scoped caches shared across the whole
//	                  population (this file):
//
//	  - value sets     memoized per (value-subtree signature, entity)
//	  - typed values   the value sets parsed once per (value-subtree
//	                   signature, parsing measure, entity) — numeric,
//	                   geographic and date compare floats, coordinates
//	                   and times, not strings (similarity.Prepared); the
//	                   typed column lives in its value-set entry
//	  - raw distances  memoized per (comparison-modulo-threshold
//	                   signature, pair) — a comparison's distance does not
//	                   depend on its threshold, so threshold-crossover
//	                   offspring hit the cache
//	  - scores         folded from the cached distance vectors a whole
//	                   column at a time: each instruction of a rule's
//	                   similarity program is one loop over every pair,
//	                   in buffers each worker reuses for every rule
//	  - counts         memoized per canonical rule signature: a rule that
//	                   repeats inside a batch, or was scored in an earlier
//	                   one, is neither compiled nor folded again
//
// Caches are keyed by the canonical signatures of package rule and survive
// across generations: only subtrees first seen this generation are
// computed. Entries unused for keepGenerations generations are evicted,
// and hard caps bound memory on adversarial populations; all three bounds
// are constants. One ageing rule covers every layer: a typed column goes
// when its value-set entry goes; a memoized count answers only while
// every distance vector its rule reads is still cached, and answering
// refreshes those vectors exactly as folding the rule would have — so the
// value and distance caches hold what they would hold without the memo,
// which only removes work.
//
// A batch runs on Options.Workers goroutines wherever the order of the
// work cannot change its outcome: signing the rules, compiling the ones
// the memo cannot answer, filling value sets and typed columns,
// computing distance vectors and folding. What stays on the calling
// goroutine is one pass in rule order over the signatures — the memo
// lookups and the scheduling of value, typed and distance columns —
// because whether the memo answers a rule depends on what the rules
// before it scheduled; keeping that pass serial keeps every CacheStats
// counter the same at every worker count.
//
// Equivalence with the interpreted tree-walk (rule.Rule.Evaluate) is pinned
// by differential tests over random rules and entities, which count with
// Rule.Matches in the test files. The tree-walk is those tests' oracle and
// nothing else: this package has one evaluation path, the operator kinds
// and aggregators of package rule are a closed set the compiler covers,
// and so every rule is compiled.
package evalengine

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"genlink/internal/entity"
	"genlink/internal/rule"
	"genlink/internal/similarity"
)

// Counts is a confusion matrix over reference links. It is structurally
// identical to evalx.Confusion (evalx converts; defining it here keeps the
// dependency arrow pointing from evalx to the engine).
type Counts struct {
	TP, TN, FP, FN int
}

// Options tunes an Engine.
type Options struct {
	// Workers bounds evaluation parallelism (≤0 means GOMAXPROCS).
	Workers int
}

func (o Options) workers() int {
	if o.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return o.Workers
}

// The cache bounds of every Engine.
const (
	// maxDistEntries caps the number of cached distance vectors. One
	// vector costs 8 bytes × number of reference pairs.
	maxDistEntries = 4096
	// maxValueEntries caps the number of cached value-set columns.
	maxValueEntries = 8192
	// keepGenerations evicts cache entries unused for this many
	// generations.
	keepGenerations = 3
)

// limits are an engine's cache bounds: the constants above, which the
// package's tests shrink (export_test.go) so eviction bites on small
// populations.
type limits struct {
	maxDist, maxValue, keep int
}

// valueEntry caches the value sets of one value program for every interned
// entity, computed lazily per entity side, and next to them their typed
// form under every prepared measure that has compared them.
type valueEntry struct {
	prog     *valueProgram
	vals     [][]string
	done     []bool
	prepared map[string]*preparedColumn // by measure name
	lastUsed int
}

// preparedColumn is the typed form of a valueEntry's value sets under one
// prepared measure, filled as lazily as the value sets themselves.
type preparedColumn struct {
	col  similarity.Column
	done []bool
}

// distEntry caches the raw distances of one distance program for every
// reference pair.
type distEntry struct {
	dists    []float64
	lastUsed int
}

// ruleEntry memoizes the confusion counts of one canonical rule signature.
type ruleEntry struct {
	counts Counts
	// dists are the signatures of the distance vectors the rule reads.
	dists    []string
	lastUsed int
}

// CacheStats reports cache effectiveness, mostly for tests and the perf
// harness.
type CacheStats struct {
	// ValueVectors and DistVectors are the current cache sizes.
	ValueVectors, DistVectors int
	// DistComputed counts distance vectors computed across all batches;
	// DistHits counts batch lookups served from cache.
	DistComputed, DistHits int64
	// PreparedColumns is the number of typed columns currently cached
	// inside the value vectors; PreparedComputed counts those ever built.
	PreparedColumns  int
	PreparedComputed int64
	// RuleSignatures is the current size of the per-signature counts memo.
	RuleSignatures int
	// RulesFolded counts the rules compiled and folded over the pairs
	// across all batches. RuleHits counts the rules answered from the
	// memo instead; RuleRepeats is the part of RuleHits whose signature
	// had occurred earlier in the same batch, the rest were scored in an
	// earlier one.
	RulesFolded, RuleHits, RuleRepeats int64
	// FoldOps counts the similarity instructions run over the pairs:
	// each folded rule's instruction count times the number of
	// reference pairs, summed over the rules folded.
	FoldOps int64
}

// Engine evaluates batches of rules against a fixed set of reference links
// with cross-generation memoization. Create one engine per link set (e.g.
// per learning run) and feed it every generation; the caches make the
// shared structure of consecutive populations nearly free.
//
// Engine methods must not be called concurrently with each other; the
// parallelism lives inside EvaluateBatch.
type Engine struct {
	opts   Options
	limits limits
	table  *entityTable

	values map[string]*valueEntry
	dists  map[string]*distEntry
	rules  map[string]*ruleEntry
	gen    int
	stats  CacheStats
	// folders are the phase-3 workers' scratch, kept across batches.
	folders []folder
}

// New returns an engine over the given reference links.
func New(refs *entity.ReferenceLinks, opts Options) *Engine {
	return &Engine{
		opts:   opts,
		limits: limits{maxDist: maxDistEntries, maxValue: maxValueEntries, keep: keepGenerations},
		table:  newEntityTable(refs),
		values: make(map[string]*valueEntry),
		dists:  make(map[string]*distEntry),
		rules:  make(map[string]*ruleEntry),
	}
}

// Stats returns current cache statistics.
func (e *Engine) Stats() CacheStats {
	s := e.stats
	s.ValueVectors = len(e.values)
	s.DistVectors = len(e.dists)
	s.RuleSignatures = len(e.rules)
	for _, ve := range e.values {
		s.PreparedColumns += len(ve.prepared)
	}
	return s
}

// Evaluate scores a single rule (one-element batch).
func (e *Engine) Evaluate(r *rule.Rule) Counts {
	return e.EvaluateBatch([]*rule.Rule{r})[0]
}

// EvaluateOnce builds a throwaway engine and scores one rule — the
// delegation target of evalx.Evaluate. Even without cross-generation reuse
// it deduplicates subtree work within the rule and evaluates each value
// program once per entity instead of once per pair.
func EvaluateOnce(r *rule.Rule, refs *entity.ReferenceLinks) Counts {
	return New(refs, Options{Workers: 1}).Evaluate(r)
}

// sides records for which sides of the reference pairs a lazily filled
// column is needed by the current batch.
type sides struct{ a, b bool }

func (s *sides) add(sideA bool) {
	if sideA {
		s.a = true
	} else {
		s.b = true
	}
}

// EvaluateBatch scores every rule over the engine's reference links and
// returns one confusion count per rule, in order. It advances the cache
// generation.
//
// The workers sign every rule, then compile the first rule of each
// signature the memo cannot answer at batch start. The calling goroutine
// then walks the rules in order, answering from the memo or scheduling
// the compiled rule's missing columns, exactly as it would with no
// workers: an entry that could not answer at batch start may answer once
// an earlier rule has scheduled the vector it missed, and then the
// program compiled for it goes unused. So RulesFolded, RuleHits,
// RuleRepeats, DistHits, DistComputed and FoldOps count the same at every
// worker count. The workers then fill the scheduled columns and fold the
// compiled rules.
func (e *Engine) EvaluateBatch(rules []*rule.Rule) []Counts {
	out := make([]Counts, len(rules))
	if len(rules) == 0 || e.table.numPairs() == 0 {
		return out
	}
	workers := e.opts.workers()
	e.gen++

	// Sign every rule on the workers, then compile, also on the workers,
	// the first rule of each signature the memo cannot answer at batch
	// start: one it has no entry for, or one whose entry reads a distance
	// vector no longer cached.
	sigs := make([]string, len(rules))
	parallelDo(len(rules), workers, func(_, i int) { sigs[i] = rules[i].Signature() })
	var compile []int
	seen := make(map[string]struct{}, len(rules))
	for i, sig := range sigs {
		if _, ok := seen[sig]; ok {
			continue
		}
		seen[sig] = struct{}{}
		if re, ok := e.rules[sig]; !ok || !e.cached(re) {
			compile = append(compile, i)
		}
	}
	progs := make([]*Compiled, len(rules))
	parallelDo(len(compile), workers, func(_, j int) { progs[compile[j]] = Compile(rules[compile[j]]) })

	// Look every rule up by canonical signature, in rule order. The
	// cache only grows until evict, so the memo answers every rule it
	// could answer at batch start, and every rule whose signature came
	// earlier in the batch: a rule it does not answer is the first of its
	// signature and was compiled above. Its cache misses are collected,
	// deduplicated by signature.
	type valueNeed struct {
		entry *valueEntry
		sides
	}
	valueNeeds := make(map[string]*valueNeed)
	needValue := func(p *valueProgram, sideA bool) *valueEntry {
		n, ok := valueNeeds[p.sig]
		if !ok {
			ve, cached := e.values[p.sig]
			if !cached {
				ve = &valueEntry{
					prog: p,
					vals: make([][]string, len(e.table.entities)),
					done: make([]bool, len(e.table.entities)),
				}
				e.values[p.sig] = ve
			}
			n = &valueNeed{entry: ve}
			valueNeeds[p.sig] = n
		}
		n.entry.lastUsed = e.gen
		n.add(sideA)
		return n.entry
	}
	type preparedNeed struct {
		values *valueEntry
		column *preparedColumn
		sides
	}
	preparedNeeds := make(map[*preparedColumn]*preparedNeed)
	needPrepared := func(ve *valueEntry, m similarity.Prepared, sideA bool) similarity.Column {
		pc, cached := ve.prepared[m.Name()]
		if !cached {
			pc = &preparedColumn{col: m.NewColumn(len(ve.vals)), done: make([]bool, len(ve.vals))}
			if ve.prepared == nil {
				ve.prepared = make(map[string]*preparedColumn)
			}
			ve.prepared[m.Name()] = pc
			e.stats.PreparedComputed++
		}
		n, ok := preparedNeeds[pc]
		if !ok {
			n = &preparedNeed{values: ve, column: pc}
			preparedNeeds[pc] = n
		}
		n.add(sideA)
		return pc.col
	}
	type distNeed struct {
		entry *distEntry
		prog  *distProgram
		a, b  *valueEntry
		// pa and pb are the typed columns of a and b when the measure is
		// a prepared one.
		pa, pb similarity.Column
	}
	distNeeds := make(map[string]*distNeed)
	type foldTask struct {
		prog  *Compiled
		entry *ruleEntry
	}
	var folds []foldTask
	memo := make([]*ruleEntry, len(rules))
	for i, sig := range sigs {
		if re, ok := e.rules[sig]; ok && e.answers(re) {
			memo[i] = re
			continue
		}
		p := progs[i]
		re := &ruleEntry{dists: make([]string, len(p.dists)), lastUsed: e.gen}
		e.rules[sig] = re
		memo[i] = re
		folds = append(folds, foldTask{prog: p, entry: re})
		e.stats.RulesFolded++
		e.stats.FoldOps += int64(len(p.sims)) * int64(e.table.numPairs())
		for j, d := range p.dists {
			re.dists[j] = d.sig
			if de, ok := e.dists[d.sig]; ok {
				// Cached from a previous generation or already scheduled
				// by another rule of this batch.
				de.lastUsed = e.gen
				e.stats.DistHits++
				continue
			}
			de := &distEntry{dists: make([]float64, e.table.numPairs()), lastUsed: e.gen}
			e.dists[d.sig] = de
			n := &distNeed{
				entry: de,
				prog:  d,
				a:     needValue(d.a, true),
				b:     needValue(d.b, false),
			}
			// Only the parsing measures pay for a typed column here: an
			// entity meets few reference pairs, so sorting its tokens for
			// a set measure costs more than the scan it would replace
			// (BenchmarkFitnessEvaluation). A scoring record, compared
			// with every candidate, keeps both kinds.
			if m, ok := d.measure.(similarity.Prepared); ok && d.rank == rankParsed {
				n.pa = needPrepared(n.a, m, true)
				n.pb = needPrepared(n.b, m, false)
			}
			distNeeds[d.sig] = n
			e.stats.DistComputed++
		}
	}

	// Build every referenced property column up front so the parallel
	// phases read the column map without synchronization.
	for _, n := range valueNeeds {
		for _, in := range n.entry.prog.instrs {
			if in.op == vProp {
				e.table.column(in.prop)
			}
		}
	}

	// Phase 1: materialize missing value sets, one worker per value
	// program (distinct programs write distinct entries — no contention),
	// then their missing typed forms, one worker per typed column.
	valueTasks := make([]*valueNeed, 0, len(valueNeeds))
	for _, n := range valueNeeds {
		valueTasks = append(valueTasks, n)
	}
	parallelDo(len(valueTasks), workers, func(_, ti int) {
		n := valueTasks[ti]
		prog := n.entry.prog
		scratch := make([][]string, prog.depth)
		e.table.fillMissing(n.entry.done, n.sides, func(id int32) {
			n.entry.vals[id] = prog.eval(e.table.columnGetter(id), scratch)
		})
	})
	preparedTasks := make([]*preparedNeed, 0, len(preparedNeeds))
	for _, n := range preparedNeeds {
		preparedTasks = append(preparedTasks, n)
	}
	parallelDo(len(preparedTasks), workers, func(_, ti int) {
		n := preparedTasks[ti]
		e.table.fillMissing(n.column.done, n.sides, func(id int32) {
			n.column.col.Prepare(int(id), n.values.vals[id])
		})
	})

	// Phase 2: compute missing distance vectors over all pairs, one worker
	// per distance program — arithmetic over the typed columns for the
	// prepared measures, the measure over the value sets for the others.
	distTasks := make([]*distNeed, 0, len(distNeeds))
	for _, n := range distNeeds {
		distTasks = append(distTasks, n)
	}
	pairA, pairB := e.table.pairA, e.table.pairB
	parallelDo(len(distTasks), workers, func(_, ti int) {
		n := distTasks[ti]
		if n.pa != nil {
			for p := range n.entry.dists {
				n.entry.dists[p] = n.pa.Distance(int(pairA[p]), n.pb, int(pairB[p]))
			}
			return
		}
		va, vb := n.a.vals, n.b.vals
		m := n.prog.measure
		for p := range n.entry.dists {
			n.entry.dists[p] = m.Distance(va[pairA[p]], vb[pairB[p]])
		}
	})

	// Phase 3: fold every rule the memo could not answer over the cached
	// distance vectors, one instruction at a time over all pairs, each
	// worker in its own reusable buffers, then hand every rule the counts
	// of its signature.
	if len(e.folders) < workers {
		e.folders = make([]folder, workers)
	}
	parallelDo(len(folds), workers, func(w, ti int) {
		root := e.foldRule(folds[ti].prog, &e.folders[w])
		folds[ti].entry.counts = e.count(root)
	})
	for i, re := range memo {
		out[i] = re.counts
	}

	e.evict()
	return out
}

// folder is one phase-3 worker's scratch: the distance columns of the
// rule it folds and the machine's operand stack over all pairs, grown to
// the largest rule and reused for every rule the worker folds, in this
// batch and the next.
type folder struct {
	vecs  [][]float64
	stack []float64
}

// foldRule folds compiled rule p over every reference pair, reading the
// cached distance vectors of p's distance programs, and returns the root
// score column, which lives in f until the next fold, or nil when p is
// the empty rule.
func (e *Engine) foldRule(p *Compiled, f *folder) []float64 {
	n := e.table.numPairs()
	if cap(f.vecs) < len(p.dists) {
		f.vecs = make([][]float64, len(p.dists))
	}
	f.vecs = f.vecs[:len(p.dists)]
	for _, d := range p.dists {
		f.vecs[d.id] = e.dists[d.sig].dists
	}
	if cap(f.stack) < p.depth*n {
		f.stack = make([]float64, p.depth*n)
	}
	return p.fold(distColumns{vecs: f.vecs}, f.stack[:p.depth*n], n)
}

// count classifies the pairs by their root scores, positives first, as
// links at rule.MatchThreshold; a nil root scores every pair 0.
func (e *Engine) count(root []float64) Counts {
	pos, neg := e.table.numPos, e.table.numPairs()-e.table.numPos
	c := Counts{FN: pos, TN: neg}
	if root == nil {
		return c
	}
	for _, s := range root[:pos] {
		if s >= rule.MatchThreshold {
			c.TP++
		}
	}
	for _, s := range root[pos:] {
		if s >= rule.MatchThreshold {
			c.FP++
		}
	}
	c.FN -= c.TP
	c.TN -= c.FP
	return c
}

// answers reports whether the memoized counts of re stand in for
// evaluating its rule in the current batch, and if so touches the caches
// the way the evaluation would have. An evaluation recomputes a distance
// vector that is no longer cached, so the memo answers only while every
// vector the rule reads is; it then stamps them as used and counts one
// cache hit each — lastUsed, DistHits and DistComputed move as if the rule
// had been compiled and folded.
func (e *Engine) answers(re *ruleEntry) bool {
	if re.lastUsed == e.gen {
		// Entered or refreshed by an earlier rule of this batch, which
		// stamped (or scheduled) the vectors already.
		e.stats.RuleRepeats++
	} else if !e.cached(re) {
		return false
	} else {
		for _, sig := range re.dists {
			e.dists[sig].lastUsed = e.gen
		}
		re.lastUsed = e.gen
	}
	e.stats.DistHits += int64(len(re.dists))
	e.stats.RuleHits++
	return true
}

// cached reports whether every distance vector re's rule reads is in
// the cache.
func (e *Engine) cached(re *ruleEntry) bool {
	for _, sig := range re.dists {
		if _, ok := e.dists[sig]; !ok {
			return false
		}
	}
	return true
}

// evict drops cache entries unused for keepGenerations generations, then
// enforces the hard caps oldest-first.
func (e *Engine) evict() {
	cutoff := e.gen - e.limits.keep
	for sig, de := range e.dists {
		if de.lastUsed <= cutoff {
			delete(e.dists, sig)
		}
	}
	for sig, ve := range e.values {
		if ve.lastUsed <= cutoff {
			delete(e.values, sig)
		}
	}
	for sig, re := range e.rules {
		if re.lastUsed <= cutoff {
			delete(e.rules, sig)
		}
	}
	if n := len(e.dists) - e.limits.maxDist; n > 0 {
		evictOldest(e.dists, n, func(d *distEntry) int { return d.lastUsed })
	}
	if n := len(e.values) - e.limits.maxValue; n > 0 {
		evictOldest(e.values, n, func(v *valueEntry) int { return v.lastUsed })
	}
}

// evictOldest removes the n entries first in (lastUsed, signature)
// order. Breaking stamp ties by signature, not by map order, makes the
// choice — and so everything later batches recompute — repeat run to run
// (TestEngineEvictionDeterministic).
func evictOldest[V any](m map[string]V, n int, lastUsed func(V) int) {
	type aged struct {
		sig string
		gen int
	}
	entries := make([]aged, 0, len(m))
	for sig, v := range m {
		entries = append(entries, aged{sig, lastUsed(v)})
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].gen != entries[j].gen {
			return entries[i].gen < entries[j].gen
		}
		return entries[i].sig < entries[j].sig
	})
	for i := 0; i < n && i < len(entries); i++ {
		delete(m, entries[i].sig)
	}
}

// parallelDo runs f(w, i) for i in 0..n-1 across at most workers
// goroutines, w in 0..workers-1 naming the goroutine that runs i; the
// calling goroutine is worker 0. Workers claim the next index from one
// atomic counter: signing a rule takes a few microseconds, about what
// handing an index over an unbuffered channel costs, so a channel would
// make signing and compiling on the workers no faster than on one
// goroutine, while a counter increment is nanoseconds.
func parallelDo(n, workers int, f func(w, i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			f(0, i)
		}
		return
	}
	var next atomic.Int64
	run := func(w int) {
		for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
			f(w, i)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run(w)
		}()
	}
	run(0)
	wg.Wait()
}
