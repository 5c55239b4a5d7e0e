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
//	  - scores         derived from cached distances at fold time
//	                   (a few float ops per pair)
//	  - counts         memoized per canonical rule signature: a rule that
//	                   repeats inside a batch, or was scored in an earlier
//	                   one, is neither compiled nor folded again
//
// Caches are keyed by the canonical signatures of package rule and survive
// across generations: only subtrees first seen this generation are
// computed. Entries unused for KeepGenerations generations are evicted, and
// hard caps bound memory on adversarial populations. One ageing rule covers
// every layer: a typed column goes when its value-set entry goes; a
// memoized count answers only while every distance vector its rule reads
// is still cached, and answering refreshes those vectors exactly as
// folding the rule would have — so the value and distance caches hold what
// they would hold without the memo, which only removes work.
//
// Equivalence with the interpreted tree-walk (rule.Rule.Evaluate) is pinned
// by a differential test over random rules and entities. The tree-walk is
// that test's oracle and nothing else: the operator kinds and aggregators
// of package rule are a closed set the compiler covers, so every rule is
// compiled.
package evalengine

import (
	"runtime"
	"sort"
	"sync"

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
	// Disabled is the switch the engine ≡ tree-walk differentials flip
	// (TestEngineDisabledEqualsEnabled, the learner-level identity test,
	// BenchmarkFitnessEvaluation's baseline): evaluation falls back to
	// the interpreted tree-walk, parallelized over rules. It is not a
	// tuning option — no binary or flag sets it.
	Disabled bool
	// Workers bounds evaluation parallelism (≤0 means GOMAXPROCS).
	Workers int
	// MaxDistEntries caps the number of cached distance vectors
	// (0 means 4096, negative means unlimited). One vector costs
	// 8 bytes × number of reference pairs.
	MaxDistEntries int
	// MaxValueEntries caps the number of cached value-set columns
	// (0 means 8192, negative means unlimited).
	MaxValueEntries int
	// KeepGenerations evicts cache entries unused for this many
	// generations (0 means 3).
	KeepGenerations int
}

func (o Options) workers() int {
	if o.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return o.Workers
}

func (o Options) maxDist() int {
	if o.MaxDistEntries == 0 {
		return 4096
	}
	return o.MaxDistEntries
}

func (o Options) maxValue() int {
	if o.MaxValueEntries == 0 {
		return 8192
	}
	return o.MaxValueEntries
}

func (o Options) keep() int {
	if o.KeepGenerations <= 0 {
		return 3
	}
	return o.KeepGenerations
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
}

// Engine evaluates batches of rules against a fixed set of reference links
// with cross-generation memoization. Create one engine per link set (e.g.
// per learning run) and feed it every generation; the caches make the
// shared structure of consecutive populations nearly free.
//
// Engine methods must not be called concurrently with each other; the
// parallelism lives inside EvaluateBatch.
type Engine struct {
	opts  Options
	refs  *entity.ReferenceLinks
	table *entityTable

	values map[string]*valueEntry
	dists  map[string]*distEntry
	rules  map[string]*ruleEntry
	gen    int
	stats  CacheStats
}

// New returns an engine over the given reference links.
func New(refs *entity.ReferenceLinks, opts Options) *Engine {
	return &Engine{
		opts:   opts,
		refs:   refs,
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
func (e *Engine) EvaluateBatch(rules []*rule.Rule) []Counts {
	out := make([]Counts, len(rules))
	if len(rules) == 0 || e.table.numPairs() == 0 {
		return out
	}
	workers := e.opts.workers()
	if e.opts.Disabled {
		parallelDo(len(rules), workers, func(i int) {
			out[i] = treeWalk(rules[i], e.refs)
		})
		return out
	}
	e.gen++

	// Look every rule up by canonical signature. Only the first rule of a
	// signature the memo cannot answer is compiled; its cache misses are
	// collected, deduplicated by signature.
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
	for i, r := range rules {
		sig := r.Signature()
		if re, ok := e.rules[sig]; ok && e.answers(re) {
			memo[i] = re
			continue
		}
		p := Compile(r)
		re := &ruleEntry{dists: make([]string, len(p.dists)), lastUsed: e.gen}
		e.rules[sig] = re
		memo[i] = re
		folds = append(folds, foldTask{prog: p, entry: re})
		e.stats.RulesFolded++
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
	parallelDo(len(valueTasks), workers, func(ti int) {
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
	parallelDo(len(preparedTasks), workers, func(ti int) {
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
	parallelDo(len(distTasks), workers, func(ti int) {
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
	// distance vectors, then hand every rule the counts of its signature.
	parallelDo(len(folds), workers, func(ti int) {
		p := folds[ti].prog
		vecs := make([][]float64, len(p.dists))
		for _, d := range p.dists {
			vecs[d.id] = e.dists[d.sig].dists
		}
		pd := make([]float64, len(p.dists))
		stack := make([]float64, p.depth)
		var c Counts
		for pi := 0; pi < e.table.numPairs(); pi++ {
			for j := range vecs {
				pd[j] = vecs[j][pi]
			}
			match := p.fold(pd, stack) >= rule.MatchThreshold
			if pi < e.table.numPos {
				if match {
					c.TP++
				} else {
					c.FN++
				}
			} else {
				if match {
					c.FP++
				} else {
					c.TN++
				}
			}
		}
		folds[ti].entry.counts = c
	})
	for i, re := range memo {
		out[i] = re.counts
	}

	e.evict()
	return out
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
	} else {
		for _, sig := range re.dists {
			if _, ok := e.dists[sig]; !ok {
				return false
			}
		}
		for _, sig := range re.dists {
			e.dists[sig].lastUsed = e.gen
		}
		re.lastUsed = e.gen
	}
	e.stats.DistHits += int64(len(re.dists))
	e.stats.RuleHits++
	return true
}

// evict drops cache entries unused for KeepGenerations generations, then
// enforces the hard caps oldest-first.
func (e *Engine) evict() {
	cutoff := e.gen - e.opts.keep()
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
	if limit := e.opts.maxDist(); limit > 0 && len(e.dists) > limit {
		evictOldest(e.dists, len(e.dists)-limit, func(d *distEntry) int { return d.lastUsed })
	}
	if limit := e.opts.maxValue(); limit > 0 && len(e.values) > limit {
		evictOldest(e.values, len(e.values)-limit, func(v *valueEntry) int { return v.lastUsed })
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

// treeWalk is the interpreted reference evaluation: classify every pair
// with Rule.Matches and tally the confusion matrix.
func treeWalk(r *rule.Rule, refs *entity.ReferenceLinks) Counts {
	var c Counts
	if refs == nil {
		return c
	}
	for _, p := range refs.Positive {
		if r.Matches(p.A, p.B) {
			c.TP++
		} else {
			c.FN++
		}
	}
	for _, p := range refs.Negative {
		if r.Matches(p.A, p.B) {
			c.FP++
		} else {
			c.TN++
		}
	}
	return c
}

// parallelDo runs f(0..n-1) across at most workers goroutines.
func parallelDo(n, workers int, f func(int)) {
	if n == 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				f(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}
