package linkindex_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"strings"
	"testing"

	"genlink/internal/entity"
	"genlink/internal/linkindex"
	"genlink/internal/matching"
)

// snapshotLines returns a snapshot's lines: the header, then one per
// section.
func snapshotLines(t *testing.T, snap []byte) [][]byte {
	t.Helper()
	if !bytes.HasSuffix(snap, []byte{'\n'}) {
		t.Fatal("snapshot does not end in a newline")
	}
	lines := bytes.Split(snap[:len(snap)-1], []byte{'\n'})
	if got := snapshotSections(t, snap); got != len(lines)-1 {
		t.Fatalf("header counts %d sections, the file holds %d lines after it", got, len(lines)-1)
	}
	return lines
}

// TestSnapshotFixtureReencodes pins the entity decoder to bytes earlier
// writers stored: each section of the testdata snapshots, decoded and
// re-encoded by json.Marshal, is its line byte for byte. The writer of
// sections_per_shard.snap also put a "shard" member first in each
// section, which decoding skips (through json.Unmarshal, as an unknown
// key) and re-encoding cannot restore, so that member is cut from its
// lines before they are compared.
func TestSnapshotFixtureReencodes(t *testing.T) {
	shardMember := regexp.MustCompile(`^\{"shard":[0-9]+,`)
	for _, name := range []string{"custom_blocker.snap", "sections_per_shard.snap"} {
		snap, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range snapshotLines(t, snap)[1:] {
			var sec entity.Section
			if err := sec.DecodeJSON(line); err != nil {
				t.Fatalf("%s section %d: %v", name, i, err)
			}
			want := shardMember.ReplaceAll(line, []byte{'{'})
			got, err := json.Marshal(&sec)
			if err != nil {
				t.Fatal(err)
			}
			if len(sec.Entities) == 0 || !bytes.Equal(got, want) {
				t.Fatalf("%s section %d re-encodes as\n%s\nthe file holds\n%s", name, i, got, want)
			}
		}
	}
}

// TestDurableSnapshotEqualsJSONMarshal holds a DurableIndex.Snapshot of a
// fixed corpus — with values json.Marshal escapes, invalid UTF-8, and
// entities with nil, empty and null-valued properties — to json.Marshal:
// each section line equals json.Marshal of that section, the shard's
// stored entities sorted by ID and cut as buildSnapshot cuts them.
func TestDurableSnapshotEqualsJSONMarshal(t *testing.T) {
	const shards = 2
	corpus := append(sectionPerShardCorpus(),
		&entity.Entity{ID: "q<&>", Properties: map[string][]string{"name": {"a\u2028b\x01\"\\"}, "title": {"\xff é \u2029"}}},
		&entity.Entity{ID: "q2", Properties: map[string][]string{}},
		&entity.Entity{ID: "q3"},
		&entity.Entity{ID: "q4", Properties: map[string][]string{"name": nil, "title": {}}},
	)
	dir := t.TempDir()
	ix := linkindex.NewSharded(diffWMeanRule(), shards, matching.Options{Blocker: matching.TokenBlocking()})
	d, err := linkindex.NewDurable(dir, ix, linkindex.DurableOptions{SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if _, err := d.Apply(linkindex.Batch{Upserts: corpus}); err != nil {
		t.Fatal(err)
	}
	if err := d.Snapshot(); err != nil {
		t.Fatal(err)
	}
	snaps, err := filepath.Glob(filepath.Join(dir, "snapshot-*.snap"))
	if err != nil || len(snaps) == 0 {
		t.Fatalf("no snapshot written: %v", err)
	}
	slices.Sort(snaps)
	snap, err := os.ReadFile(snaps[len(snaps)-1])
	if err != nil {
		t.Fatal(err)
	}
	lines := snapshotLines(t, snap)[1:]
	per := max(1, runtime.GOMAXPROCS(0)/shards)
	if len(lines) != per*shards {
		t.Fatalf("%d sections, want %d", len(lines), per*shards)
	}
	byShard := make([][]*entity.Entity, shards)
	for _, e := range corpus {
		p := linkindex.PartitionOf(e.ID, shards)
		byShard[p] = append(byShard[p], ix.Get(e.ID))
	}
	for p, ents := range byShard {
		slices.SortFunc(ents, func(a, b *entity.Entity) int { return strings.Compare(a.ID, b.ID) })
		for j := range per {
			want, err := json.Marshal(entity.Section{Entities: ents[j*len(ents)/per : (j+1)*len(ents)/per]})
			if err != nil {
				t.Fatal(err)
			}
			if got := lines[p*per+j]; !bytes.Equal(got, want) {
				t.Fatalf("shard %d section %d:\n got %s\nwant %s", p, j, got, want)
			}
		}
	}
}
