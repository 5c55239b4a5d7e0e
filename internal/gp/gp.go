// Package gp provides the genetic-programming machinery shared by the
// GenLink learner and the Carvalho et al. baseline: populations with cached
// fitness, tournament selection, and parallel fitness evaluation.
//
// The package is generic over the genome type so tree representations as
// different as linkage rules (genlink) and arithmetic expression trees
// (carvalho) reuse the same evolution scaffolding.
package gp

import (
	"math/rand"
	"runtime"
	"sync"
)

// Individual pairs a genome with its cached fitness.
type Individual[G any] struct {
	// Genome is the candidate solution.
	Genome G
	// Fitness is the cached fitness (higher is better).
	Fitness float64
}

// Population is an ordered collection of individuals.
type Population[G any] struct {
	Individuals []Individual[G]
}

// Len returns the population size.
func (p *Population[G]) Len() int { return len(p.Individuals) }

// Best returns the index of the individual with the highest fitness.
// It returns -1 for an empty population.
func (p *Population[G]) Best() int {
	best := -1
	for i := range p.Individuals {
		if best < 0 || p.Individuals[i].Fitness > p.Individuals[best].Fitness {
			best = i
		}
	}
	return best
}

// Evaluate computes the fitness of every individual with the given number
// of workers (≤0 means GOMAXPROCS). The fitness function must be safe for
// concurrent use; it receives the genome and returns its fitness.
func (p *Population[G]) Evaluate(fitness func(G) float64, workers int) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	n := len(p.Individuals)
	if n == 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := range p.Individuals {
			p.Individuals[i].Fitness = fitness(p.Individuals[i].Genome)
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
				p.Individuals[i].Fitness = fitness(p.Individuals[i].Genome)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// Tournament selects one individual by tournament selection of size k:
// k individuals are drawn uniformly with replacement and the fittest wins.
// It returns the index of the winner. The population must be non-empty.
func (p *Population[G]) Tournament(rng *rand.Rand, k int) int {
	if k < 1 {
		k = 1
	}
	winner := rng.Intn(len(p.Individuals))
	for i := 1; i < k; i++ {
		challenger := rng.Intn(len(p.Individuals))
		if p.Individuals[challenger].Fitness > p.Individuals[winner].Fitness {
			winner = challenger
		}
	}
	return winner
}

// SelectPair draws two individuals by two independent tournaments.
func (p *Population[G]) SelectPair(rng *rand.Rand, k int) (a, b int) {
	return p.Tournament(rng, k), p.Tournament(rng, k)
}
