package experiments

import (
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
)

// AllTables lists every table Report renders, in the order
// `experiments -all` prints them.
var AllTables = []string{"5", "6", "7", "8", "9", "10", "11", "12", "13", "14", "15", "carvalho", "blocking"}

// Report writes one table — "5" to "15", "carvalho" or "blocking" — at
// the given scale to w, as cmd/experiments prints it: a rule, the
// table, a blank line. dataset restricts the blocking ablation to one
// dataset ("" for all); the other tables ignore it.
func Report(w io.Writer, table string, scale Scale, dataset string) error {
	var b strings.Builder
	b.WriteString("──────────────────────────────────────────────────────\n")
	switch table {
	case "blocking":
		if dataset != "" {
			if !slices.Contains(DatasetNames(), dataset) {
				return fmt.Errorf("unknown dataset %q (valid: %v)", dataset, DatasetNames())
			}
			b.WriteString(FormatBlockingTable(BlockingAblation(Dataset(dataset, scale.Seed))))
			break
		}
		b.WriteString(FormatBlockingTable(BlockingAblationAll(scale.Seed)))
	case "5":
		b.WriteString(Table5(scale.Seed))
	case "6":
		b.WriteString(Table6(scale.Seed))
	case "13":
		b.WriteString(FormatTable13(Table13(scale)))
	case "14":
		b.WriteString(FormatTable14(Table14(scale)))
	case "15":
		b.WriteString(FormatTable15(Table15(scale)))
	case "carvalho":
		b.WriteString("Carvalho et al. baseline under the same protocol:\n")
		for _, name := range []string{"Cora", "Restaurant"} {
			res := CarvalhoBaseline(Dataset(name, scale.Seed), scale)
			fmt.Fprintf(&b, "%-12s Train F1 %.3f (%.3f)   Val F1 %.3f (%.3f)\n",
				name, res.TrainF1, res.TrainStd, res.ValF1, res.ValStd)
		}
	default:
		n, err := strconv.Atoi(table)
		if err != nil || n < 7 || n > 12 {
			return fmt.Errorf("unknown table %q (valid: 5..15, carvalho, blocking)", table)
		}
		b.WriteString(LearningCurveTable(n, scale))
	}
	b.WriteString("\n")
	_, err := io.WriteString(w, b.String())
	return err
}
