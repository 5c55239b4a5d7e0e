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
	"fmt"
	"log"
	"os"
	"slices"
	"strconv"

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

	if *all {
		for _, t := range []string{"5", "6", "7", "8", "9", "10", "11", "12", "13", "14", "15", "carvalho", "blocking"} {
			run(t, scale, *dataset)
		}
		return
	}
	if *table == "" {
		flag.Usage()
		os.Exit(2)
	}
	run(*table, scale, *dataset)
}

// run regenerates one table; dataset optionally restricts the blocking
// ablation to a single dataset (other tables ignore it).
func run(table string, scale experiments.Scale, dataset string) {
	fmt.Printf("──────────────────────────────────────────────────────\n")
	switch table {
	case "blocking":
		if dataset != "" {
			if !slices.Contains(experiments.DatasetNames(), dataset) {
				log.Fatalf("unknown dataset %q (valid: %v)", dataset, experiments.DatasetNames())
			}
			ds := experiments.Dataset(dataset, scale.Seed)
			fmt.Print(experiments.FormatBlockingTable(experiments.BlockingAblation(ds)))
			break
		}
		fmt.Print(experiments.FormatBlockingTable(experiments.BlockingAblationAll(scale.Seed)))
	case "5":
		fmt.Print(experiments.Table5(scale.Seed))
	case "6":
		fmt.Print(experiments.Table6(scale.Seed))
	case "13":
		fmt.Print(experiments.FormatTable13(experiments.Table13(scale)))
	case "14":
		fmt.Print(experiments.FormatTable14(experiments.Table14(scale)))
	case "15":
		fmt.Print(experiments.FormatTable15(experiments.Table15(scale)))
	case "carvalho":
		fmt.Println("Carvalho et al. baseline under the same protocol:")
		for _, name := range []string{"Cora", "Restaurant"} {
			ds := experiments.Dataset(name, scale.Seed)
			res := experiments.CarvalhoBaseline(ds, scale)
			fmt.Printf("%-12s Train F1 %.3f (%.3f)   Val F1 %.3f (%.3f)\n",
				name, res.TrainF1, res.TrainStd, res.ValF1, res.ValStd)
		}
	default:
		n, err := strconv.Atoi(table)
		if err != nil || n < 7 || n > 12 {
			log.Fatalf("unknown table %q (valid: 5..15, carvalho, blocking)", table)
		}
		fmt.Print(experiments.LearningCurveTable(n, scale))
	}
	fmt.Println()
}
