package main

import (
	"sync"
	"testing"
	"time"
)

func TestScheduleDueTimes(t *testing.T) {
	start := time.Unix(1000, 0)
	s := &schedule{start: start, rate: 50, n: 3}
	for i, want := range []time.Duration{0, 20 * time.Millisecond, 40 * time.Millisecond} {
		if got := s.due(i).Sub(start); got != want {
			t.Errorf("request %d due after %v, want %v", i, got, want)
		}
	}
	for i := 0; i < 3; i++ {
		if got, ok := s.take(); !ok || got != i {
			t.Fatalf("take %d = %d, %v", i, got, ok)
		}
	}
	if _, ok := s.take(); ok {
		t.Fatal("an exhausted schedule handed out a request")
	}
}

func TestLatenessIsNeverNegative(t *testing.T) {
	due := time.Unix(1000, 0)
	if got := lateness(due, due.Add(-time.Second)); got != 0 {
		t.Errorf("a request sent early is %v late, want 0", got)
	}
	if got := lateness(due, due.Add(3*time.Millisecond)); got != 3*time.Millisecond {
		t.Errorf("lateness %v, want 3ms", got)
	}
}

// When the server stalls, the requests that were due during the stall
// must be charged the wait: every client is stuck in a slow first
// request, so the requests behind them start late and their due times,
// not their send times, are what fire receives.
func TestOpenLoopCountsFromDueTime(t *testing.T) {
	const rate, n = 200.0, 10 // one request every 5 ms
	stall := 60 * time.Millisecond
	var mu sync.Mutex
	started := make([]time.Duration, n) // how long after its due time each request started
	_, _, late := openLoop(rate, n, func(_, i int, due time.Time, _ *recorder) {
		mu.Lock()
		started[i] = time.Since(due)
		mu.Unlock()
		if i < clients {
			time.Sleep(stall)
		}
	})
	if len(late) != n {
		t.Fatalf("%d lateness samples for %d requests", len(late), n)
	}
	// Request `clients` was due 5·clients ms after the start but could only
	// start once a stalled client came free.
	wantLate := stall - time.Duration(float64(clients)/rate*float64(time.Second)) - 5*time.Millisecond
	if started[clients] < wantLate {
		t.Errorf("request %d started %v after its due time, want at least %v: the stall was hidden", clients, started[clients], wantLate)
	}
	if started[0] > 20*time.Millisecond {
		t.Errorf("first request started %v after its due time", started[0])
	}
}
