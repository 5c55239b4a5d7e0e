package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"genlink/benchmark/corpus"
)

// clients is the number of client connections every service workload
// drives: this host has two CPUs, and the load generator and the servers
// share them.
const clients = 2

// newHTTPClient returns the load generator's client: at most `clients`
// connections per server, kept alive, with a timeout so a wedged server
// fails the run instead of hanging it.
func newHTTPClient() *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     clients,
			MaxIdleConnsPerHost: clients,
			IdleConnTimeout:     time.Minute,
		},
	}
}

// send performs one generated request against base and returns the
// status and the body. A transport error comes back as err.
func send(c *http.Client, base string, r corpus.Request) (int, []byte, error) {
	var body io.Reader
	if r.Body != nil {
		body = bytes.NewReader(r.Body)
	}
	req, err := http.NewRequest(r.Method, base+r.Path, body)
	if err != nil {
		return 0, nil, err
	}
	if r.Body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// recorder collects one client's latency samples by operation name, and
// its attempted and failed request counts. Each client goroutine owns
// one; merge combines them after the goroutines have ended.
type recorder struct {
	lat       map[string][]time.Duration
	attempted int
	failed    int
	firstErr  error
}

func newRecorder() *recorder { return &recorder{lat: make(map[string][]time.Duration)} }

// timed sends the request, expecting status want, and records its
// latency under op. A failed or refused request records no latency: it
// counts as missing every latency figure, and shows in failed.
func (r *recorder) timed(c *http.Client, base, op string, req corpus.Request, want int) ([]byte, bool) {
	t0 := time.Now()
	return r.finish(c, base, op, req, want, t0)
}

// finish is timed with the clock started by the caller (the open loop
// counts from the instant the request was due, not from when it was
// sent).
func (r *recorder) finish(c *http.Client, base, op string, req corpus.Request, want int, t0 time.Time) ([]byte, bool) {
	r.attempted++
	status, body, err := send(c, base, req)
	done := time.Now()
	if err == nil && status != want {
		err = fmt.Errorf("%s %s: status %d, want %d: %s", req.Method, req.Path, status, want, bytes.TrimSpace(body))
	}
	if err != nil {
		r.failed++
		if r.firstErr == nil {
			r.firstErr = err
		}
		return nil, false
	}
	if op != "" {
		r.lat[op] = append(r.lat[op], done.Sub(t0))
	}
	return body, true
}

func merge(rs []*recorder) *recorder {
	out := newRecorder()
	for _, r := range rs {
		for op, ds := range r.lat {
			out.lat[op] = append(out.lat[op], ds...)
		}
		out.attempted += r.attempted
		out.failed += r.failed
		if out.firstErr == nil {
			out.firstErr = r.firstErr
		}
	}
	return out
}

// closedLoop runs `clients` goroutines, each calling step until it
// returns false: a client sends its next request only when the previous
// reply has arrived. It returns the merged recorder.
func closedLoop(step func(client int, rec *recorder) bool) *recorder {
	recs := make([]*recorder, clients)
	var wg sync.WaitGroup
	for c := range recs {
		recs[c] = newRecorder()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for step(c, recs[c]) {
			}
		}()
	}
	wg.Wait()
	return merge(recs)
}

// schedule is an open-loop arrival schedule: request i is due at
// start + i/rate, whatever happened to the requests before it.
type schedule struct {
	start time.Time
	rate  float64 // requests per second
	n     int
	next  atomic.Int64
}

// due returns when request i is due.
func (s *schedule) due(i int) time.Time {
	return s.start.Add(time.Duration(float64(i) / s.rate * float64(time.Second)))
}

// take hands out the next request index, or false when the schedule is
// exhausted.
func (s *schedule) take() (int, bool) {
	i := int(s.next.Add(1) - 1)
	return i, i < s.n
}

// openLoop sends n requests at a fixed rate over the `clients`
// connections. Each request's latency counts from the instant it was
// due, so when the server stalls, the wait the stall imposes on the
// requests queued behind it is measured, not hidden. late collects how
// long after its due time each request was actually sent — how late the
// generator ran.
func openLoop(rate float64, n int, fire func(client, i int, due time.Time, rec *recorder)) (rec *recorder, start time.Time, late []time.Duration) {
	s := &schedule{start: time.Now(), rate: rate, n: n}
	recs := make([]*recorder, clients)
	lates := make([][]time.Duration, clients)
	var wg sync.WaitGroup
	for c := range recs {
		recs[c] = newRecorder()
		wg.Add(1)
		go func() {
			defer wg.Done()
			timer := time.NewTimer(time.Hour)
			defer timer.Stop()
			for {
				i, ok := s.take()
				if !ok {
					return
				}
				due := s.due(i)
				if wait := time.Until(due); wait > 0 {
					timer.Reset(wait)
					<-timer.C
				}
				lates[c] = append(lates[c], lateness(due, time.Now()))
				fire(c, i, due, recs[c])
			}
		}()
	}
	wg.Wait()
	for _, l := range lates {
		late = append(late, l...)
	}
	return merge(recs), s.start, late
}

// lateness is how long after its due time a request was sent; a request
// sent on time is zero late, never negative.
func lateness(due, sent time.Time) time.Duration {
	return max(0, sent.Sub(due))
}
