package similarity

import (
	"testing"
	"testing/quick"
)

func TestQGram(t *testing.T) {
	m := QGram()
	if got := dist1(m, "berlin", "berlin"); got != 0 {
		t.Fatalf("identical qgram = %v", got)
	}
	if got := dist1(m, "", ""); got != 0 {
		t.Fatalf("empty qgram = %v", got)
	}
	if got := dist1(m, "abc", ""); got != 1 {
		t.Fatalf("vs empty = %v", got)
	}
	// One typo keeps most trigrams shared.
	d := dist1(m, "berlin", "berlim")
	if d <= 0 || d >= 0.7 {
		t.Fatalf("typo qgram = %v, want small but nonzero", d)
	}
	// Disjoint strings are maximally distant.
	if got := dist1(m, "aaaa", "zzzz"); got != 1 {
		t.Fatalf("disjoint qgram = %v", got)
	}
}

func TestQGramBoundsProperty(t *testing.T) {
	m := QGram()
	f := func(a, b string) bool {
		d := dist1(m, a, b)
		return d >= 0 && d <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMongeElkan(t *testing.T) {
	m := MongeElkan()
	if got := dist1(m, "john smith", "john smith"); got != 0 {
		t.Fatalf("identical mongeElkan = %v", got)
	}
	// Token reorder is nearly free.
	if got := dist1(m, "smith john", "john smith"); got > 0.01 {
		t.Fatalf("reordered mongeElkan = %v", got)
	}
	// A shared token keeps the distance moderate.
	shared := dist1(m, "john smith", "john doe")
	disjoint := dist1(m, "john smith", "xyzzy qwerty")
	if shared >= disjoint {
		t.Fatalf("shared-token distance %v should be below disjoint %v", shared, disjoint)
	}
	if got := dist1(m, "", "x"); got != 1 {
		t.Fatalf("empty mongeElkan = %v", got)
	}
	// Two values without tokens are equal under the measure's tokenization.
	if got := dist1(m, " ", "\t"); got != 0 {
		t.Fatalf("tokenless mongeElkan = %v, want 0", got)
	}
}

func TestMongeElkanSymmetric(t *testing.T) {
	m := MongeElkan()
	f := func(a, b string) bool {
		return dist1(m, a, b) == dist1(m, b, a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSoundex(t *testing.T) {
	cases := []struct {
		in   string
		code string
	}{
		{"Robert", "R163"},
		{"Rupert", "R163"},
		{"Ashcraft", "A261"},
		{"Ashcroft", "A261"},
		{"Tymczak", "T522"},
		{"Pfister", "P236"},
		{"", "0000"},
	}
	for _, c := range cases {
		if got := soundexCode(c.in); got != c.code {
			t.Errorf("soundex(%q) = %q, want %q", c.in, got, c.code)
		}
	}
	m := Soundex()
	if got := dist1(m, "Robert", "Rupert"); got != 0 {
		t.Fatalf("phonetic twins distance = %v", got)
	}
	if got := dist1(m, "Robert", "Smith"); got != 1 {
		t.Fatalf("phonetic strangers distance = %v", got)
	}
}

func TestExtraMeasuresRegistered(t *testing.T) {
	for _, name := range []string{"qgram", "mongeElkan", "soundex"} {
		m := ByName(name)
		if m == nil || m.Name() != name {
			t.Fatalf("measure %q not registered", name)
		}
	}
}
