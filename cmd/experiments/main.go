// Command experiments regenerates the tables of the paper's evaluation
// section (Tables 5–15).
//
// Usage:
//
//	experiments -table 7            # one table at quick scale
//	experiments -all                # all tables at quick scale
//	experiments -table 13 -full     # paper-scale protocol (slow)
//	experiments -table carvalho     # the Carvalho et al. reference rows
//	experiments -table blocking     # blocking ablation, all datasets (slow)
//	experiments -table blocking -dataset Cora
package main

import (
	"flag"
	"log"
	"os"

	"genlink/internal/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")

	var (
		table   = flag.String("table", "", "table to regenerate: 5..15, 'carvalho' or 'blocking'")
		all     = flag.Bool("all", false, "regenerate every table")
		full    = flag.Bool("full", false, "use the paper-scale protocol (population 500, 50 iterations, 10 runs; slow)")
		seed    = flag.Int64("seed", 1, "random seed")
		runs    = flag.Int("runs", 0, "override the number of cross-validation runs")
		dataset = flag.String("dataset", "", "restrict the blocking ablation to one dataset")
	)
	flag.Parse()

	scale := experiments.Quick()
	if *full {
		scale = experiments.Paper()
	}
	scale.Seed = *seed
	if *runs > 0 {
		scale.Runs = *runs
	}

	tables := []string{*table}
	if *all {
		tables = experiments.AllTables
	} else if *table == "" {
		flag.Usage()
		os.Exit(2)
	}
	for _, t := range tables {
		if err := experiments.Report(os.Stdout, t, scale, *dataset); err != nil {
			log.Fatal(err)
		}
	}
}
