package datagen

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"genlink/internal/entity"
)

// corpusFingerprint serializes a dataset canonically — sources in order,
// entities in insertion order, properties sorted, values in order, then
// the reference links — and hashes it. Byte-identical corpora ⇔ equal
// fingerprints.
func corpusFingerprint(ds *entity.Dataset) string {
	h := sha256.New()
	writeSource := func(src *entity.Source) {
		fmt.Fprintf(h, "source %s %d\n", src.Name, src.Len())
		for _, e := range src.Entities {
			fmt.Fprintf(h, "entity %s\n", e.ID)
			for _, p := range e.PropertyNames() {
				fmt.Fprintf(h, "  %s=%s\n", p, strings.Join(e.Values(p), "\x1f"))
			}
		}
	}
	writeSource(ds.A)
	writeSource(ds.B)
	writeLinks := func(label string, pairs []entity.Pair) {
		fmt.Fprintf(h, "%s %d\n", label, len(pairs))
		for _, p := range pairs {
			fmt.Fprintf(h, "  %s|%s\n", p.A.ID, p.B.ID)
		}
	}
	writeLinks("positive", ds.Refs.Positive)
	writeLinks("negative", ds.Refs.Negative)
	return hex.EncodeToString(h.Sum(nil))
}

// TestGeneratorsDeterministic pins that every generator is a pure
// function of its seed: same seed → byte-identical corpora and reference
// links. The rig (benchmark/, whose cora-x corpus is built from
// datagen.Cora chunks) and its cross-PR result trajectory depend on this
// — a nondeterministic corpus would make its records incomparable
// between runs.
func TestGeneratorsDeterministic(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			gen := Registry[name]
			for _, seed := range []int64{1, 7} {
				a := corpusFingerprint(gen(seed))
				b := corpusFingerprint(gen(seed))
				if a != b {
					t.Fatalf("%s(seed=%d) generated two different corpora:\n%s\n%s", name, seed, a, b)
				}
			}
			if corpusFingerprint(gen(1)) == corpusFingerprint(gen(2)) {
				t.Fatalf("%s ignores its seed: seeds 1 and 2 generated identical corpora", name)
			}
		})
	}
}

// goldenFingerprints pins the exact corpora of two datasets, Cora being
// the one the rig's corpus and pinned rule are built on. If an
// intentional generator change lands, update these values — and expect
// rig records (benchmark/out/results.jsonl) from before the change to be
// incomparable with records after it.
var goldenFingerprints = map[string]string{
	"Cora":       "9443b894f32074588a58df12e1ac3459cbe29aac4b03488b70d3a11dbd632d17",
	"Restaurant": "4c5eb6248a3e6df7688badbbbb2c18162323516b11fd669abf261a4e1b881668",
}

func TestGeneratorsGolden(t *testing.T) {
	for name, want := range goldenFingerprints {
		if got := corpusFingerprint(Registry[name](1)); got != want {
			t.Errorf("%s(seed=1) fingerprint changed:\n got %s\nwant %s\n"+
				"(if the generator change is intentional, update goldenFingerprints "+
				"and treat older rig records as a new baseline)", name, got, want)
		}
	}
}
