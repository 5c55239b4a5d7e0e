// Command genlink learns an expressive linkage rule from CSV data sources
// and reference links, prints it, and optionally writes it as JSON or XML
// and executes it over the full sources.
//
// Usage:
//
//	genlink -a sourceA.csv -b sourceB.csv -links links.csv [flags]
//
// The link file has rows idA,idB,label with label 1/0 (an optional header
// is detected). If only positive links are given (-links with all-1
// labels), negatives are generated by cross-pairing, as in the paper.
//
// Alternatively, -dataset <name> runs on one of the paper's six synthetic
// evaluation datasets.
package main

import (
	"encoding/json"
	"encoding/xml"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"genlink/pkg/genlinkapi"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("genlink: ")

	var (
		fileA      = flag.String("a", "", "CSV file for source A (first column or -id-a column is the id)")
		fileB      = flag.String("b", "", "CSV file for source B (omit for deduplication within -a)")
		linksFile  = flag.String("links", "", "CSV file with reference links: idA,idB,label")
		dataset    = flag.String("dataset", "", "run on a built-in paper dataset instead (Cora, Restaurant, SiderDrugBank, NYT, LinkedMDB, DBpediaDrugBank)")
		idA        = flag.String("id-a", "", "id column name in source A (default: first column)")
		idB        = flag.String("id-b", "", "id column name in source B (default: first column)")
		seed       = flag.Int64("seed", 1, "random seed")
		population = flag.Int("population", 500, "population size (Table 4: 500)")
		iterations = flag.Int("iterations", 50, "maximum iterations (Table 4: 50)")
		outJSON    = flag.String("out-json", "", "write the learned rule as JSON to this file")
		outXML     = flag.String("out-xml", "", "write the learned rule as XML to this file")
		execute    = flag.Bool("execute", false, "execute the learned rule over the full sources and print links")
		blocker    = flag.String("blocker", "token", "blocking strategy of -execute for a rule without an edit bound: token, sortedneighborhood, qgram or multipass (a rule with a necessary levenshtein comparison is served from its rule index instead)")
		workers    = flag.Int("workers", 0, "parallel match workers for -execute (0 = GOMAXPROCS)")
	)
	flag.Parse()

	bl := genlinkapi.BlockerByName(*blocker)
	if bl == nil {
		log.Fatalf("unknown blocker %q (available: %v)", *blocker, genlinkapi.BlockerNames())
	}

	var (
		a, b *genlinkapi.Source
		refs *genlinkapi.ReferenceLinks
		err  error
	)
	switch {
	case *dataset != "":
		ds := genlinkapi.Dataset(*dataset, *seed)
		if ds == nil {
			log.Fatalf("unknown dataset %q (available: %v)", *dataset, genlinkapi.DatasetNames())
		}
		a, b, refs = ds.A, ds.B, ds.Refs
	case *fileA != "" && *linksFile != "":
		a, b, refs, err = loadTask(*fileA, *fileB, *linksFile, *idA, *idB)
		if err != nil {
			log.Fatal(err)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}

	cfg := genlinkapi.DefaultConfig()
	cfg.Seed = *seed
	cfg.PopulationSize = *population
	cfg.MaxIterations = *iterations

	res, err := genlinkapi.Learn(cfg, refs)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("Learned linkage rule:")
	fmt.Print(res.Best.Render())
	conf := genlinkapi.Evaluate(res.Best, refs)
	fmt.Printf("F-measure %.3f, precision %.3f, recall %.3f, MCC %.3f over %d reference links\n",
		conf.FMeasure(), conf.Precision(), conf.Recall(), conf.MCC(), refs.Len())
	fmt.Println("\nEvolution (rules: evaluated / distinct signatures / answered from the signature memo):")
	fmt.Printf("%-5s %9s %9s %9s  %-18s %8s  %s\n", "Iter.", "Time s", "Breed ms", "Eval ms", "Rules", "Vectors", "Train F1")
	for _, h := range res.History {
		fmt.Printf("%-5d %9.2f %9.1f %9.1f  %-18s %8d  %.3f\n", h.Iteration, h.Elapsed.Seconds(),
			float64(h.BreedTime)/float64(time.Millisecond), float64(h.EvalTime)/float64(time.Millisecond),
			fmt.Sprintf("%d / %d / %d", h.Evaluated, h.DistinctRules, h.MemoHits), h.DistComputed, h.TrainF1)
	}

	if *outJSON != "" {
		data, err := json.MarshalIndent(res.Best, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*outJSON, data, 0o644); err != nil {
			log.Fatal(err)
		}
	}
	if *outXML != "" {
		data, err := xml.MarshalIndent(res.Best, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*outXML, data, 0o644); err != nil {
			log.Fatal(err)
		}
	}
	if *execute {
		fmt.Println("\nLinks over the full sources:")
		opts := genlinkapi.MatchOptions{Blocker: bl}
		for _, l := range genlinkapi.MatchParallel(res.Best, a, b, opts, *workers) {
			fmt.Printf("%s,%s,%.3f\n", l.AID, l.BID, l.Score)
		}
	}
}

func loadTask(fileA, fileB, linksFile, idA, idB string) (*genlinkapi.Source, *genlinkapi.Source, *genlinkapi.ReferenceLinks, error) {
	fa, err := os.Open(fileA)
	if err != nil {
		return nil, nil, nil, err
	}
	defer fa.Close()
	a, err := genlinkapi.ReadCSV(fa, "A", genlinkapi.CSVOptions{IDColumn: idA})
	if err != nil {
		return nil, nil, nil, fmt.Errorf("loading %s: %w", fileA, err)
	}

	b := a // deduplication: both sides are the same source
	if fileB != "" {
		fb, err := os.Open(fileB)
		if err != nil {
			return nil, nil, nil, err
		}
		defer fb.Close()
		b, err = genlinkapi.ReadCSV(fb, "B", genlinkapi.CSVOptions{IDColumn: idB})
		if err != nil {
			return nil, nil, nil, fmt.Errorf("loading %s: %w", fileB, err)
		}
	}

	fl, err := os.Open(linksFile)
	if err != nil {
		return nil, nil, nil, err
	}
	defer fl.Close()
	links, err := genlinkapi.ReadLinksCSV(fl)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("loading %s: %w", linksFile, err)
	}
	refs, err := genlinkapi.Resolve(a, b, links)
	if err != nil {
		return nil, nil, nil, err
	}
	if len(refs.Negative) == 0 {
		// Only positives supplied: generate negatives by cross-pairing.
		refs.Negative = genlinkapi.GenerateNegatives(refs.Positive)
	}
	return a, b, refs, nil
}
