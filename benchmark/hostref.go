package main

import (
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// hostRef times a fixed computation that uses none of this repository's
// code — string building, map inserts and a sort, on as many goroutines
// as the run has clients — and returns the wall time in milliseconds.
// Every result record carries it: the sandbox's speed drifts by tens of
// percent over minutes, and two sets of runs are comparable only while
// this number stayed put. It is never used to scale a reported metric.
func hostRef() float64 {
	t0 := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			keys := make([]string, 60000)
			seen := make(map[string]int, len(keys))
			for i := range keys {
				keys[i] = strconv.FormatInt(rng.Int63(), 36)
				seen[keys[i]] += i
			}
			sort.Strings(keys)
			sink.Add(int64(len(seen) + len(keys[0])))
		}()
	}
	wg.Wait()
	return float64(time.Since(t0)) / float64(time.Millisecond)
}

// cpuTicks reads the aggregate CPU line of /proc/stat: the ticks the
// hypervisor stole from this virtual machine, and all ticks. Both are 0
// when the file cannot be read.
func cpuTicks() (steal, total float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, _ := strconv.ParseFloat(f, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}
