package linkrouter

import (
	"testing"
	"time"

	"genlink/internal/linkindex"
)

func TestNormalizeAddr(t *testing.T) {
	cases := map[string]string{
		"localhost:8080":         "http://localhost:8080",
		"http://localhost:8080":  "http://localhost:8080",
		"http://localhost:8080/": "http://localhost:8080",
		"https://db.example":     "https://db.example",
	}
	for in, want := range cases {
		if got := normalizeAddr(in); got != want {
			t.Errorf("normalizeAddr(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestNewValidatesGroups(t *testing.T) {
	if _, err := New(Options{}); err == nil {
		t.Fatal("New with no groups must error")
	}
	if _, err := New(Options{Groups: [][]string{{}}}); err == nil {
		t.Fatal("New with an empty group must error")
	}
}

// newTestGroup builds a group without a live router: two replicas and a
// leader with polled states installed directly.
func newTestGroup() *group {
	g := &group{
		nodes:  []string{"http://l", "http://f1", "http://f2"},
		state:  make(map[string]nodeState),
		leader: "http://l",
	}
	g.state["http://l"] = nodeState{role: "leader", healthy: true}
	g.state["http://f1"] = nodeState{role: "follower", lag: 0, healthy: true}
	g.state["http://f2"] = nodeState{role: "follower", lag: 3, healthy: true}
	return g
}

func TestPickReadLagGating(t *testing.T) {
	g := newTestGroup()

	// MaxLag 0: only the caught-up follower is eligible.
	for i := 0; i < 3; i++ {
		if addr := g.pickRead(0); addr != "http://f1" {
			t.Fatalf("pickRead(0) = %s, want the caught-up follower", addr)
		}
	}

	// MaxLag 3 admits the lagging follower too, round-robin across both.
	seen := map[string]bool{}
	for i := 0; i < 4; i++ {
		addr := g.pickRead(3)
		if addr == "http://l" {
			t.Fatalf("pickRead(3) returned the leader with two eligible replicas")
		}
		seen[addr] = true
	}
	if !seen["http://f1"] || !seen["http://f2"] {
		t.Fatalf("pickRead(3) did not round-robin: saw %v", seen)
	}

	// No eligible replica (all lagging or unhealthy): leader fallback.
	g.markUnhealthy("http://f1")
	if addr := g.pickRead(0); addr != "http://l" {
		t.Fatalf("pickRead with no eligible replica = %s, want leader fallback", addr)
	}
}

func TestAlternatePrefersLeaderForReplicaPrimary(t *testing.T) {
	g := newTestGroup()
	if alt := g.alternate("http://f1", 0); alt != "http://l" {
		t.Fatalf("alternate(replica) = %s, want the leader", alt)
	}
	// Primary is the leader: the hedge goes to another healthy node.
	if alt := g.alternate("http://l", 0); alt != "http://f1" && alt != "http://f2" {
		t.Fatalf("alternate(leader) = %s, want a follower", alt)
	}
	// Single-node group: nothing to hedge to.
	solo := &group{nodes: []string{"http://only"}, state: map[string]nodeState{}, leader: "http://only"}
	if alt := solo.alternate("http://only", 0); alt != "" {
		t.Fatalf("alternate on a single-node group = %q, want empty", alt)
	}
}

func TestWriteOrderLeaderFirst(t *testing.T) {
	g := newTestGroup()
	g.setLeader("http://f2") // e.g. learned from a 403 body
	order := g.writeOrder()
	if order[0] != "http://f2" {
		t.Fatalf("writeOrder = %v, want the leader guess first", order)
	}
	if len(order) != 3 {
		t.Fatalf("writeOrder = %v, want every node exactly once", order)
	}
}

func TestSetLeaderReportsChange(t *testing.T) {
	g := newTestGroup()
	if g.setLeader("http://l") {
		t.Fatal("setLeader with the current leader must report no change")
	}
	if !g.setLeader("http://f1") {
		t.Fatal("setLeader with a new address must report the change")
	}
}

func TestSnapshotReplicaReadRatio(t *testing.T) {
	if r := (Snapshot{}).ReplicaReadRatio(); r != 0 {
		t.Fatalf("ratio with no reads = %v, want 0", r)
	}
	s := Snapshot{ReplicaReads: 3, LeaderReads: 1}
	if r := s.ReplicaReadRatio(); r != 0.75 {
		t.Fatalf("ratio = %v, want 0.75", r)
	}
}

// TestPlacementMatchesShardedIndex pins that the router places an ID on
// the same partition the sharded index's own hash discipline would — the
// invariant the whole routed-read path rests on.
func TestPlacementMatchesShardedIndex(t *testing.T) {
	for parts := 1; parts <= 5; parts++ {
		split := linkindex.SplitBatch(linkindex.Batch{
			Deletes: []string{"a", "bb", "ccc", "Grace Hopper", "entity/42", ""},
		}, parts)
		for pi, b := range split {
			for _, id := range b.Deletes {
				if got := linkindex.PartitionOf(id, parts); got != pi {
					t.Fatalf("SplitBatch put %q in partition %d, PartitionOf says %d", id, pi, got)
				}
			}
		}
	}
}

// TestRouterCloseStopsPoller pins that Close terminates the poll loop
// even with unreachable backends.
func TestRouterCloseStopsPoller(t *testing.T) {
	rt, err := New(Options{
		Groups:         [][]string{{"http://127.0.0.1:1"}}, // nothing listens there
		PollInterval:   10 * time.Millisecond,
		RequestTimeout: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { rt.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not stop the poller")
	}
}
