package datagen

import (
	"fmt"
	"math/rand"
	"strings"

	"genlink/internal/entity"
)

// NYT generates the OAEI 2011 location-interlinking dataset of Tables 5/6:
// 5620 New York Times locations (38 properties, coverage 0.3) vs 1819
// DBpedia locations (110 properties, coverage 0.2) with 1920 positive
// links. Some DBpedia locations are referenced by more than one NYT entry
// (1920 links over 1819 targets), as in the curated original.
//
// The matching signal is a place name with editorial qualifiers
// ("Berlin (Germany)" vs "Berlin") plus jittered coordinates. In the
// paper names alone are ambiguous, which makes NYT the hardest dataset
// of the evaluation (Table 10) and the one where non-linear rules and
// specialized crossover help most (Tables 13/15). This generator models
// the qualifiers, the jitter, the sparse coverage and a few homonyms (one
// place in 20 takes another's name), but its negatives are cross pairs
// of positives, which rarely land on a homonym: validation F1 is 1.000
// from iteration 0, so the learning curve is saturated today.
func NYT(seed int64) *entity.Dataset {
	rng := rand.New(rand.NewSource(seed ^ 0x4E17))
	a := entity.NewSource("nyt")
	b := entity.NewSource("dbpedia")

	const (
		targets    = 1819
		links      = 1920
		nytTotal   = 5620
		duplicated = links - targets // 101 DBpedia locations with 2 NYT entries
	)

	type place struct {
		name     string
		country  string
		lat, lon float64
	}
	places := make([]place, targets)
	for i := range places {
		places[i] = place{
			name:    titleCase(word(rng, 2+rng.Intn(2))),
			country: titleCase(word(rng, 3)),
			lat:     rng.Float64()*160 - 80,
			lon:     rng.Float64()*340 - 170,
		}
	}
	// Introduce homonym places (same name, far apart) so label-only rules
	// misfire — the regime where coordinates must join the rule.
	for i := 0; i < targets/20; i++ {
		src := rng.Intn(targets)
		dst := rng.Intn(targets)
		places[dst].name = places[src].name
	}

	var positives []entity.Link
	nytID := 0
	addNYT := func(p place) string {
		id := fmt.Sprintf("nyt/%04d", nytID)
		nytID++
		a.Add(nytEntity(rng, id, p.name, p.country, p.lat, p.lon))
		return id
	}

	for i, p := range places {
		bid := fmt.Sprintf("dbp/%04d", i)
		b.Add(dbpediaPlaceEntity(rng, bid, p.name, p.country, p.lat, p.lon))
		positives = append(positives, entity.Link{AID: addNYT(p), BID: bid, Match: true})
		if i < duplicated {
			positives = append(positives, entity.Link{AID: addNYT(p), BID: bid, Match: true})
		}
	}
	// Distractor NYT locations without a DBpedia counterpart.
	for nytID < nytTotal {
		p := place{
			name:    titleCase(word(rng, 2+rng.Intn(2))),
			country: titleCase(word(rng, 3)),
			lat:     rng.Float64()*160 - 80,
			lon:     rng.Float64()*340 - 170,
		}
		addNYT(p)
	}

	all := append(sortedCopy(positives), crossNegatives(positives)...)
	return buildDataset("NYT", a, b, all)
}

// nytEntity renders the NYT view: qualified names, coordinates, sparse
// editorial metadata. Coverage 0.3 over 38 properties ≈ 11.4 set.
func nytEntity(rng *rand.Rand, id, name, country string, lat, lon float64) *entity.Entity {
	e := entity.New(id)
	qualified := name
	if rng.Float64() < 0.5 {
		qualified = fmt.Sprintf("%s (%s)", name, country)
	}
	e.Add("nytName", caseNoise(rng, qualified))
	jlat, jlon := jitterCoord(rng, lat, lon, 0.01)
	e.Add("nytGeo", coord(jlat, jlon))
	if rng.Float64() < 0.5 {
		e.Add("nytCountry", country)
	}
	// (2.5 signal + 35·q)/38 = 0.3 → q ≈ 0.25.
	fillerProps(rng, e, "nytProp", 35, (0.3*38-2.5)/35)
	return e
}

// dbpediaPlaceEntity renders the DBpedia view: plain or underscored labels,
// coordinates, large sparse infobox schema. Coverage 0.2 over 110
// properties ≈ 22 set.
func dbpediaPlaceEntity(rng *rand.Rand, id, name, country string, lat, lon float64) *entity.Entity {
	e := entity.New(id)
	if rng.Float64() < 0.25 {
		e.Add("dbpLabel", "http://dbpedia.org/resource/"+strings.ReplaceAll(name, " ", "_"))
	} else {
		e.Add("dbpLabel", name)
	}
	jlat, jlon := jitterCoord(rng, lat, lon, 0.005)
	e.Add("dbpPoint", coord(jlat, jlon))
	if rng.Float64() < 0.6 {
		e.Add("dbpCountry", country)
	}
	// (2.6 signal + 107·q)/110 = 0.2 → q ≈ 0.18.
	fillerProps(rng, e, "dbpPlaceProp", 107, (0.2*110-2.6)/107)
	return e
}
