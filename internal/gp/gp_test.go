package gp

import (
	"math/rand"
	"sync/atomic"
	"testing"
	"testing/quick"
)

// newPopulation wraps genomes into a population with zero fitness.
func newPopulation[G any](genomes []G) *Population[G] {
	inds := make([]Individual[G], len(genomes))
	for i, g := range genomes {
		inds[i] = Individual[G]{Genome: g}
	}
	return &Population[G]{Individuals: inds}
}

func TestBest(t *testing.T) {
	p := newPopulation([]int{10, 20, 30})
	p.Individuals[0].Fitness = 0.1
	p.Individuals[1].Fitness = 0.9
	p.Individuals[2].Fitness = 0.5
	if got := p.Best(); got != 1 {
		t.Fatalf("Best = %d, want 1", got)
	}
	empty := &Population[int]{}
	if empty.Best() != -1 {
		t.Fatal("empty population Best should be -1")
	}
}

func TestEvaluateSerialAndParallel(t *testing.T) {
	genomes := make([]int, 100)
	for i := range genomes {
		genomes[i] = i
	}
	fitness := func(g int) float64 { return float64(g) * 2 }

	serial := newPopulation(genomes)
	serial.Evaluate(fitness, 1)
	parallel := newPopulation(genomes)
	parallel.Evaluate(fitness, 8)

	for i := range genomes {
		if serial.Individuals[i].Fitness != float64(i)*2 {
			t.Fatalf("serial fitness[%d] = %v", i, serial.Individuals[i].Fitness)
		}
		if parallel.Individuals[i].Fitness != serial.Individuals[i].Fitness {
			t.Fatal("parallel evaluation must match serial")
		}
	}
}

func TestEvaluateAllIndividualsOnce(t *testing.T) {
	var calls atomic.Int64
	p := newPopulation(make([]int, 50))
	p.Evaluate(func(int) float64 {
		calls.Add(1)
		return 0
	}, 4)
	if calls.Load() != 50 {
		t.Fatalf("fitness called %d times, want 50", calls.Load())
	}
}

func TestEvaluateEmpty(t *testing.T) {
	p := &Population[int]{}
	p.Evaluate(func(int) float64 { return 1 }, 4) // must not panic
}

func TestEvaluateDefaultWorkers(t *testing.T) {
	p := newPopulation([]int{1, 2, 3})
	p.Evaluate(func(g int) float64 { return float64(g) }, 0)
	if p.Individuals[2].Fitness != 3 {
		t.Fatal("default worker evaluation failed")
	}
}

func TestTournamentPrefersFitter(t *testing.T) {
	p := newPopulation(make([]int, 100))
	for i := range p.Individuals {
		p.Individuals[i].Fitness = float64(i)
	}
	rng := rand.New(rand.NewSource(1))
	// With k=5 over 1000 draws the mean winner index must be clearly above
	// the uniform mean of ~49.5.
	var sum int
	for i := 0; i < 1000; i++ {
		sum += p.Tournament(rng, 5)
	}
	mean := float64(sum) / 1000
	if mean < 70 {
		t.Fatalf("tournament mean winner = %v, expected strong selection pressure", mean)
	}
}

func TestTournamentK1IsUniform(t *testing.T) {
	p := newPopulation(make([]int, 10))
	for i := range p.Individuals {
		p.Individuals[i].Fitness = float64(i)
	}
	rng := rand.New(rand.NewSource(2))
	seen := make(map[int]bool)
	for i := 0; i < 500; i++ {
		seen[p.Tournament(rng, 1)] = true
	}
	if len(seen) < 10 {
		t.Fatalf("k=1 tournament visited only %d/10 individuals", len(seen))
	}
	// k<1 clamps to 1 and must not panic.
	p.Tournament(rng, 0)
}

func TestSelectPair(t *testing.T) {
	p := newPopulation(make([]int, 10))
	rng := rand.New(rand.NewSource(3))
	a, b := p.SelectPair(rng, 5)
	if a < 0 || a >= 10 || b < 0 || b >= 10 {
		t.Fatalf("SelectPair out of range: %d, %d", a, b)
	}
}

// Property: tournament winner index is always valid and its fitness is the
// max over some k-subset, hence ≥ the minimum fitness.
func TestTournamentValidProperty(t *testing.T) {
	f := func(seed int64, size, k uint8) bool {
		n := int(size%30) + 1
		p := newPopulation(make([]int, n))
		rng := rand.New(rand.NewSource(seed))
		for i := range p.Individuals {
			p.Individuals[i].Fitness = rng.Float64()
		}
		w := p.Tournament(rng, int(k%8)+1)
		return w >= 0 && w < n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
