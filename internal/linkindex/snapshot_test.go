package linkindex_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"genlink/internal/datagen"
	"genlink/internal/entity"
	"genlink/internal/linkindex"
	"genlink/internal/matching"
	"genlink/internal/rule"
	"genlink/internal/similarity"
	"genlink/internal/transform"
)

// TestSnapshotRoundTripCora is the acceptance round-trip on the paper's
// hardest dataset: bulk-load Cora's B source into a 4-shard multipass
// index, snapshot it to disk through a durable directory's genesis
// snapshot, restore that file, and require identical Stats and
// identical top-k answers for probes drawn from Cora's A source — the
// "save → restart → restore" contract of the persistence subsystem.
func TestSnapshotRoundTripCora(t *testing.T) {
	ds := datagen.ByName("Cora")(1)
	r := coraRule()
	ix := linkindex.NewSharded(r, 4, matching.Options{Blocker: matching.MultiPass()})
	ix.BulkLoad(ds.B.Entities)

	dir := t.TempDir()
	d, err := linkindex.NewDurable(dir, ix, linkindex.DurableOptions{SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	restored, err := linkindex.RestoreFrom(filepath.Join(dir, "snapshot-0000000000000000.snap"), linkindex.RestoreOptions{})
	if err != nil {
		t.Fatal(err)
	}

	want, got := ix.Stats(), restored.Stats()
	if got.Entities != want.Entities || got.Keys != want.Keys || got.Blocker != want.Blocker ||
		got.Threshold != want.Threshold || got.Shards != want.Shards {
		t.Fatalf("restored Stats = %+v, want %+v", got, want)
	}
	for i := range want.ShardEntities {
		if got.ShardEntities[i] != want.ShardEntities[i] {
			t.Fatalf("restored shard sizes %v, want %v", got.ShardEntities, want.ShardEntities)
		}
	}

	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 25; i++ {
		probe := ds.A.Entities[rng.Intn(len(ds.A.Entities))]
		wantLinks := ix.Query(probe, 10)
		gotLinks := restored.Query(probe, 10)
		if !linksEqual(gotLinks, wantLinks) {
			t.Fatalf("probe %s: restored answers diverge\n want: %v\n  got: %v", probe.ID, wantLinks, gotLinks)
		}
	}
}

// coraRule builds a learned-rule-shaped probe over Cora's schema:
// lowercased titles by levenshtein, authors by jaccard, dates numerically.
func coraRule() *rule.Rule {
	title := rule.NewComparison(
		rule.NewTransform(transform.LowerCase(), rule.NewProperty("title")),
		rule.NewTransform(transform.LowerCase(), rule.NewProperty("title")),
		similarity.Levenshtein(), 3)
	author := rule.NewComparison(
		rule.NewProperty("author"), rule.NewProperty("author"),
		similarity.Jaccard(), 0.9)
	date := rule.NewComparison(
		rule.NewProperty("date"), rule.NewProperty("date"),
		similarity.Numeric(), 2)
	return rule.New(rule.NewAggregation(rule.Max(), title, author, date))
}

// TestSnapshotKeepsShardCount pins that a snapshot restores into the
// shard count it was written with, whatever GOMAXPROCS makes the default
// (1 at GOMAXPROCS 2, 4 at 8), and answers as the snapshotted index does.
func TestSnapshotKeepsShardCount(t *testing.T) {
	r := diffRule()
	rng := rand.New(rand.NewSource(3))
	ix := linkindex.NewSharded(r, 3, matching.Options{Blocker: matching.TokenBlocking(), MaxBlockSize: -1})
	for i := 0; i < 80; i++ {
		ix.Add(diffEntity(rng, fmt.Sprintf("o%d", i)))
	}
	var buf bytes.Buffer
	if err := ix.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{2, 8} {
		setProcs(t, procs)
		restored, err := linkindex.ReadSnapshot(bytes.NewReader(buf.Bytes()), linkindex.RestoreOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if restored.Shards() != 3 {
			t.Fatalf("restored Shards = %d at GOMAXPROCS %d, want the snapshot's 3", restored.Shards(), procs)
		}
		if restored.Len() != ix.Len() {
			t.Fatalf("restored Len = %d, want %d", restored.Len(), ix.Len())
		}
		for i := 0; i < 80; i += 9 {
			id := fmt.Sprintf("o%d", i)
			want, _ := ix.QueryID(id, 0)
			got, ok := restored.QueryID(id, 0)
			if !ok || !linksEqual(got, want) {
				t.Fatalf("QueryID(%s) after restore: got %v, want %v", id, got, want)
			}
		}
	}
}

// TestSnapshotV1Rejected pins that the retired v1 format — one JSON
// object with the whole corpus inline — is refused with an error naming
// its version, never misread as an empty v2 snapshot.
func TestSnapshotV1Rejected(t *testing.T) {
	r := diffRule()
	rng := rand.New(rand.NewSource(5))
	ix := linkindex.NewSharded(r, 3, matching.Options{Blocker: matching.TokenBlocking(), MaxBlockSize: -1})
	for i := 0; i < 60; i++ {
		ix.Add(diffEntity(rng, fmt.Sprintf("c%d", i)))
	}
	st := ix.Stats()
	v1, err := json.Marshal(map[string]any{
		"version":        1,
		"shards":         3,
		"blocker":        st.Blocker,
		"threshold":      st.Threshold,
		"max_block_size": -1,
		"rule":           ix.Rule(),
		"entities":       ix.Entities(),
	})
	if err != nil {
		t.Fatal(err)
	}
	restored, err := linkindex.ReadSnapshot(bytes.NewReader(v1), linkindex.RestoreOptions{})
	if err == nil || !strings.Contains(err.Error(), "snapshot version 1") {
		t.Fatalf("v1 restore = %v, %v; want an error naming snapshot version 1", restored, err)
	}
}

// TestSnapshotVersionAndBlockerErrors pins the failure modes: a future
// format version is rejected rather than misread, and a snapshot whose
// blocker no registry name resolves (SortedNeighborhood(4) records "")
// is refused with an error naming the blocker: a restore reads the
// snapshot alone, and nothing else says how to rebuild its candidates.
func TestSnapshotVersionAndBlockerErrors(t *testing.T) {
	r := diffRule()
	rng := rand.New(rand.NewSource(4))
	var ents []*entity.Entity
	for i := 0; i < 10; i++ {
		ents = append(ents, diffEntity(rng, fmt.Sprintf("v%d", i)))
	}
	snapshot := func(bl matching.Blocker) []byte {
		ix := linkindex.NewSharded(r, 2, matching.Options{Blocker: bl})
		ix.Apply(linkindex.Batch{Upserts: ents})
		var buf bytes.Buffer
		if err := ix.WriteSnapshot(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	custom := snapshot(matching.SortedNeighborhood(4))
	if _, err := linkindex.ReadSnapshot(bytes.NewReader(custom), linkindex.RestoreOptions{}); err == nil || !strings.Contains(err.Error(), `blocker "" is not a registry strategy`) {
		t.Fatalf("restore of a non-registry blocker = %v, want an error naming the blocker", err)
	}

	// Version bump: reject. A v2 snapshot is newline-separated JSON
	// values with the header first; mangle only the header line and keep
	// the section values behind it intact.
	snap := snapshot(matching.TokenBlocking())
	hdrEnd := bytes.IndexByte(snap, '\n')
	if hdrEnd < 0 {
		t.Fatal("snapshot has no header line")
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(snap[:hdrEnd], &raw); err != nil {
		t.Fatal(err)
	}
	raw["version"] = json.RawMessage("999")
	mangledHdr, _ := json.Marshal(raw)
	mangled := append(append(mangledHdr, '\n'), snap[hdrEnd+1:]...)
	if _, err := linkindex.ReadSnapshot(bytes.NewReader(mangled), linkindex.RestoreOptions{}); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("future-version restore error = %v, want version rejection", err)
	}
}

// TestRestoreRefusesInvalidRule pins the snapshot header as a decoding
// boundary of rule shape: a header whose rule is null, or fails
// rule.Validate, is refused by RestoreFrom and by durable recovery, with
// an error that names the rule.
func TestRestoreRefusesInvalidRule(t *testing.T) {
	cases := []struct {
		name, rule, wantErr string
	}{
		{"null", `null`, "rule: nil root"},
		{"negative threshold", `{"kind":"comparison","function":"levenshtein","threshold":-3,"weight":-2,"children":[
			{"kind":"property","property":"name"},{"kind":"property","property":"name"}]}`, "rule: invalid threshold -3"},
		{"empty wmean", `{"kind":"aggregation","function":"wmean"}`, `rule: aggregation "wmean" without operands`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			ix := linkindex.NewSharded(diffRule(), 2, durableOpts())
			ix.Add(diffEntity(rand.New(rand.NewSource(1)), "e"))
			d, err := linkindex.NewDurable(dir, ix, linkindex.DurableOptions{SnapshotEvery: -1})
			if err != nil {
				t.Fatal(err)
			}
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}
			snaps, err := filepath.Glob(filepath.Join(dir, "snapshot-*.snap"))
			if err != nil || len(snaps) != 1 {
				t.Fatalf("snapshots = %v, %v; want one", snaps, err)
			}
			rewriteHeader(t, snaps[0], func(raw map[string]json.RawMessage) { raw["rule"] = json.RawMessage(c.rule) })

			if _, err := linkindex.RestoreFrom(snaps[0], linkindex.RestoreOptions{}); err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("RestoreFrom = %v, want an error containing %q", err, c.wantErr)
			}
			if _, _, err := linkindex.Recover(dir, linkindex.DurableOptions{}); err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("Recover = %v, want an error containing %q", err, c.wantErr)
			}
			// The bytes are intact, so recovery must not quarantine them.
			if _, err := os.Stat(snaps[0]); err != nil {
				t.Errorf("snapshot after refused recovery: %v, want it left in place", err)
			}
			if corrupt, _ := filepath.Glob(filepath.Join(dir, "*.corrupt")); len(corrupt) != 0 {
				t.Errorf("refused recovery quarantined %v", corrupt)
			}
		})
	}
}

// rewriteHeader rewrites the header of the snapshot file at path through
// edit, keeping the section values behind it intact.
func rewriteHeader(t *testing.T, path string, edit func(raw map[string]json.RawMessage)) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	hdrEnd := bytes.IndexByte(data, '\n')
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data[:hdrEnd], &raw); err != nil {
		t.Fatal(err)
	}
	edit(raw)
	hdr, err := json.Marshal(raw)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(hdr, data[hdrEnd:]...), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestRestoreRefusesHeaderShardCount pins the header's shard count as a
// decoding boundary: every writer cuts at least one section per shard,
// so a count below 1 or above the section count is damage. RestoreFrom
// refuses it, and recovery quarantines the snapshot and falls back to
// the older one instead of sizing an index by it.
func TestRestoreRefusesHeaderShardCount(t *testing.T) {
	for _, tc := range []struct {
		name  string
		count func(sections int) int
	}{
		{"zero", func(int) int { return 0 }},
		{"sections+1", func(sections int) int { return sections + 1 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir, batches, snaps := twoSnapshotDir(t)
			rewriteHeader(t, snaps[1], func(raw map[string]json.RawMessage) {
				var sections int
				if err := json.Unmarshal(raw["sections"], &sections); err != nil {
					t.Fatal(err)
				}
				raw["shards"] = json.RawMessage(fmt.Sprint(tc.count(sections)))
			})
			if _, err := linkindex.RestoreFrom(snaps[1], linkindex.RestoreOptions{}); err == nil || !strings.Contains(err.Error(), "shard count") {
				t.Fatalf("RestoreFrom = %v, want an error naming the shard count", err)
			}
			r, stats, err := linkindex.Recover(dir, linkindex.DurableOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			if stats.SnapshotSeq != 10 || stats.RecordsReplayed != 8 {
				t.Fatalf("stats = %+v, want fallback to snapshot 10 replaying 8 records", stats)
			}
			if _, err := os.Stat(snaps[1] + ".corrupt"); err != nil {
				t.Fatalf("refused snapshot not quarantined: %v", err)
			}
			if r.Index().Shards() != 2 {
				t.Fatalf("recovered %d shards, want the older snapshot's 2", r.Index().Shards())
			}
			compareIndexes(t, "fallback recovery", r.Index(), referenceIndex(batches, 18, 2))
		})
	}
}

// TestWritersRefuseInvalidRule pins the write side of the same boundary:
// an in-code rule that fails rule.Validate (here a negative weight,
// which in-memory scoring accepts) is refused by NewDurable and
// OpenDurable before they write anything, so no snapshot is written
// that recovery or a follower would refuse.
func TestWritersRefuseInvalidRule(t *testing.T) {
	neg, _ := negativeWeightRules()
	ix := linkindex.NewSharded(neg, 2, durableOpts())
	ix.Add(diffEntity(rand.New(rand.NewSource(1)), "e"))
	const want = "rule: negative weight -1"
	assertEmpty := func(dir string) {
		t.Helper()
		if ents, err := os.ReadDir(dir); err == nil && len(ents) != 0 {
			t.Errorf("%s holds %d entries after a refused write, want none", dir, len(ents))
		}
	}

	dir := filepath.Join(t.TempDir(), "new")
	if _, err := linkindex.NewDurable(dir, ix, linkindex.DurableOptions{SnapshotEvery: -1}); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("NewDurable = %v, want an error containing %q", err, want)
	}
	assertEmpty(dir)

	dir = t.TempDir()
	build := func() (*linkindex.ShardedIndex, error) { return ix, nil }
	if _, _, err := linkindex.OpenDurable(dir, build, linkindex.DurableOptions{SnapshotEvery: -1}); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("OpenDurable = %v, want an error containing %q", err, want)
	}
	assertEmpty(dir)
}

// TestWritersRefuseCustomBlocker pins the blocker half of the write-side
// boundary: an index whose blocker matching.RegistryName cannot name is
// refused by NewDurable and OpenDurable with an error naming it, before
// they create anything, because recovery rebuilds the blocker from the
// snapshot's name alone. A default window over a custom sort key is one:
// recovery would rebuild the default key, and on 400 Cora entities 329
// stored-ID answers moved when NewDurable accepted it.
func TestWritersRefuseCustomBlocker(t *testing.T) {
	for _, bl := range []matching.Blocker{
		matching.SortedNeighborhood(4),
		matching.SortedNeighborhoodBlocker{Key: matching.ReversedKey(matching.DefaultSortKey)},
		matching.MultiPass(matching.TokenBlocking(), matching.SortedNeighborhoodBlocker{Key: matching.ReversedKey(matching.DefaultSortKey)}, matching.QGramBlocking(0)),
	} {
		t.Run(bl.Name(), func(t *testing.T) {
			ix := linkindex.NewSharded(diffRule(), 1, matching.Options{Blocker: bl})
			ix.Apply(linkindex.Batch{Upserts: sectionPerShardCorpus()})
			want := fmt.Sprintf("blocker %q is not a registry strategy", bl.Name())

			dir := filepath.Join(t.TempDir(), "new")
			if _, err := linkindex.NewDurable(dir, ix, linkindex.DurableOptions{SnapshotEvery: -1}); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("NewDurable = %v, want an error containing %q", err, want)
			}
			if _, err := os.Stat(dir); !os.IsNotExist(err) {
				t.Errorf("refused NewDurable created %s (%v)", dir, err)
			}

			dir = t.TempDir()
			build := func() (*linkindex.ShardedIndex, error) { return ix, nil }
			if _, _, err := linkindex.OpenDurable(dir, build, linkindex.DurableOptions{SnapshotEvery: -1}); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("OpenDurable = %v, want an error containing %q", err, want)
			}
			if ents, err := os.ReadDir(dir); err != nil || len(ents) != 0 {
				t.Errorf("%s holds %d entries after a refused OpenDurable (%v), want none", dir, len(ents), err)
			}
		})
	}
}

// TestUnresolvedBlockerSnapshotLeftInPlace pins the read side of the same
// boundary on the bytes older writers left: testdata/custom_blocker.snap
// is the genesis snapshot NewDurable wrote over a SortedNeighborhood(4)
// index of sectionPerShardCorpus before it refused such an index, so its
// header names blocker "". RestoreFrom, Recover and a follower's
// bootstrap refuse it with an error naming the blocker, and leave every
// snapshot file byte for byte where it was: the file is intact, so it is
// never quarantined as corrupt, and a later reader may still accept it.
func TestUnresolvedBlockerSnapshotLeftInPlace(t *testing.T) {
	const want = `blocker "" is not a registry strategy`
	fixture, err := os.ReadFile("testdata/custom_blocker.snap")
	if err != nil {
		t.Fatal(err)
	}
	// assertKept checks each snapshot file still holds its bytes and that
	// nothing in dir was quarantined.
	assertKept := func(dir string, files map[string][]byte) {
		t.Helper()
		for path, data := range files {
			got, err := os.ReadFile(path)
			if err != nil || !bytes.Equal(got, data) {
				t.Errorf("%s after the refusal: %d bytes, %v; want it unchanged", path, len(got), err)
			}
		}
		if corrupt, _ := filepath.Glob(filepath.Join(dir, "*.corrupt")); len(corrupt) != 0 {
			t.Errorf("the refusal quarantined %v", corrupt)
		}
	}

	t.Run("RestoreFrom", func(t *testing.T) {
		if _, err := linkindex.RestoreFrom("testdata/custom_blocker.snap", linkindex.RestoreOptions{}); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("RestoreFrom = %v, want an error containing %q", err, want)
		}
		assertKept("testdata", map[string][]byte{"testdata/custom_blocker.snap": fixture})
	})

	t.Run("Recover", func(t *testing.T) {
		dir := t.TempDir()
		path := filepath.Join(dir, "snapshot-0000000000000000.snap")
		if err := os.WriteFile(path, fixture, 0o644); err != nil {
			t.Fatal(err)
		}
		// A retry answers the same: the first refusal moved nothing.
		for range 2 {
			if _, _, err := linkindex.Recover(dir, linkindex.DurableOptions{}); err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("Recover = %v, want an error containing %q", err, want)
			}
			assertKept(dir, map[string][]byte{path: fixture})
		}
	})

	t.Run("Recover two snapshots", func(t *testing.T) {
		dir, _, snaps := twoSnapshotDir(t)
		files := map[string][]byte{}
		for _, path := range snaps {
			rewriteHeader(t, path, func(raw map[string]json.RawMessage) { delete(raw, "blocker") })
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			files[path] = data
		}
		if _, _, err := linkindex.Recover(dir, linkindex.DurableOptions{}); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("Recover = %v, want an error containing %q", err, want)
		}
		assertKept(dir, files)
	})

	t.Run("follower bootstrap", func(t *testing.T) {
		leader := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != "/wal/snapshot" {
				http.NotFound(w, r)
				return
			}
			w.Header().Set("X-Snapshot-Seq", "0")
			_, _ = w.Write(fixture)
		}))
		defer leader.Close()
		dir := t.TempDir()
		if fol, err := linkindex.OpenFollower(followerOpts(leader.URL, dir)); err == nil || !strings.Contains(err.Error(), want) {
			if err == nil {
				fol.Stop()
			}
			t.Fatalf("OpenFollower = %v, want an error containing %q", err, want)
		}
		assertKept(dir, map[string][]byte{filepath.Join(dir, "snapshot-0000000000000000.snap"): fixture})
	})
}
