// Command experiments regenerates every table and figure of the
// Homunculus evaluation (§5) and prints paper-style rows. Use -run to
// select one experiment and -quick for the reduced bench budget.
// EXPERIMENTS.md holds the full-budget output and the claim each table
// backs.
//
//	go run ./cmd/experiments            # everything, full budget
//	go run ./cmd/experiments -run table2
//	go run ./cmd/experiments -quick -run fig7
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"

	"repro/internal/experiments"
	"repro/internal/experiments/sweep"
)

func main() {
	log.SetFlags(0)
	run := flag.String("run", "all", "experiment: table2|table3|table4|table5|fig4|fig6|fig7|reaction|service|all")
	quick := flag.Bool("quick", false, "use the reduced budget (faster, noisier)")
	seed := flag.Int64("seed", 1, "global experiment seed")
	flag.Parse()

	budget := experiments.Full()
	if *quick {
		budget = experiments.Quick()
	}
	budget.Seed = *seed

	err := report(os.Stdout, budget, *run)
	if errors.Is(err, errUnknownExperiment) {
		fmt.Fprintln(os.Stderr, err)
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		log.Fatal(err)
	}
}

var errUnknownExperiment = errors.New("unknown experiment")

// section is one titled block of the report.
type section struct {
	name, title string
	render      func(experiments.Budget) (string, error)
}

// rendered adapts an experiment and its formatter to a section body.
func rendered[T any](run func(experiments.Budget) (T, error), format func(T) string) func(experiments.Budget) (string, error) {
	return func(b experiments.Budget) (string, error) {
		v, err := run(b)
		if err != nil {
			return "", err
		}
		return format(v), nil
	}
}

// sections lists the report in print order.
var sections = []section{
	{"table2", "Table 2: hand-tuned baselines vs Homunculus-generated models",
		rendered(experiments.Table2, experiments.FormatTable2)},
	{"table3", "Table 3: resource scaling for application chaining strategies",
		rendered(experiments.Table3, experiments.FormatTable3)},
	{"table4", "Table 4: fused resource usage",
		rendered(experiments.Table4, experiments.FormatTable4)},
	{"table5", "Table 5: FPGA testbed resource consumption",
		rendered(experiments.Table5, experiments.FormatTable5)},
	{"fig4", "Figure 4: BO regret (F1 per iteration, anomaly-detection DNN)",
		rendered(experiments.Figure4, experiments.FormatFigure4)},
	{"fig6", "Figure 6: botnet vs benign flow-level histograms",
		rendered(experiments.Figure6, experiments.FormatFigure6)},
	{"fig7", "Figure 7: KMeans V-measure under MAT budgets",
		rendered(experiments.Figure7, experiments.FormatFigure7)},
	{"reaction", "§5.1.1: reaction time — per-packet vs flow-level botnet detection",
		rendered(experiments.ReactionTime, experiments.FormatReaction)},
	{"service", "Service sweep: bounded admission + content-addressed cache under load",
		rendered(sweep.Run, sweep.Format)},
}

// report runs the selected experiment ("all" for every one) at budget b
// and writes each section to w as soon as it completes.
func report(w io.Writer, b experiments.Budget, run string) error {
	ran := false
	for _, s := range sections {
		if run != "all" && run != s.name {
			continue
		}
		ran = true
		body, err := s.render(b)
		if err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
		if _, err := fmt.Fprintf(w, "\n%s\n%s\n%s", s.title, strings.Repeat("-", len(s.title)), body); err != nil {
			return err
		}
	}
	if !ran {
		return fmt.Errorf("%w %q", errUnknownExperiment, run)
	}
	return nil
}
