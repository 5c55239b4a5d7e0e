package main

import (
	"testing"
	"time"
)

func TestSelfTimeNestedAndOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "query", StartNs: 0, EndNs: 100},
		// Two shards in parallel: their union covers 10..70 once.
		{ID: 2, Parent: 1, Name: "candidates", StartNs: 10, EndNs: 50},
		{ID: 3, Parent: 1, Name: "candidates", StartNs: 30, EndNs: 70},
		// A child that sticks out of its parent is clipped to it.
		{ID: 4, Parent: 1, Name: "merge", StartNs: 90, EndNs: 120},
		// A grandchild takes time from its parent, not from the root.
		{ID: 5, Parent: 2, Name: "score", StartNs: 20, EndNs: 30},
	}
	self := selfTimes(spans)
	for name, want := range map[string]time.Duration{
		"query":      100 - 60 - 10, // 10..70 and 90..100 are covered
		"candidates": (40 - 10) + 40,
		"merge":      30,
		"score":      10,
	} {
		if self[name] != want {
			t.Errorf("self time of %s = %d, want %d", name, self[name], want)
		}
	}
}

func TestSelfTimeDisjointChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", StartNs: 0, EndNs: 50},
		{ID: 2, Parent: 1, Name: "a", StartNs: 0, EndNs: 10},
		{ID: 3, Parent: 1, Name: "b", StartNs: 10, EndNs: 20},
		{ID: 4, Parent: 1, Name: "a", StartNs: 40, EndNs: 50},
	}
	self := selfTimes(spans)
	if self["root"] != 20 || self["a"] != 20 || self["b"] != 10 {
		t.Errorf("self times %v", self)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	id, end := tr.start("x", 0, 0)
	end()
	tr.count("x", 1)
	if id != 0 {
		t.Errorf("nil tracer handed out span %d", id)
	}
}

func TestTracerParentsAndRequests(t *testing.T) {
	tr := newTracer()
	root, endRoot := tr.start("root", 0, 7)
	_, endKid := tr.start("kid", root, 7)
	endKid()
	endRoot()
	if len(tr.spans) != 2 || tr.spans[1].Parent != root || tr.spans[1].Request != 7 {
		t.Fatalf("spans %+v", tr.spans)
	}
	if tr.spans[0].EndNs < tr.spans[1].EndNs || tr.spans[1].StartNs < tr.spans[0].StartNs {
		t.Fatalf("child not inside parent: %+v", tr.spans)
	}
}
