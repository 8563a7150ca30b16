// Command validate reproduces the paper's §6 validation experiments:
// internal validation (Table 3: are five crawl rounds enough?) and external
// validation (Figure 9: does the monkey see what a human sees?).
//
// Usage:
//
//	validate -sites 500 -seed 42
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/measure"
	"repro/internal/report"
)

func main() {
	var (
		sites   = flag.Int("sites", 500, "ranking size")
		seed    = flag.Int64("seed", 42, "deterministic seed")
		workers = flag.Int("workers", 8, "browser workers of the survey's one shard")
		humans  = flag.Int("humans", 92, "external-validation sample size (paper: 92)")
	)
	flag.Parse()

	study, err := core.NewStudy(core.Config{
		Sites:        *sites,
		Seed:         *seed,
		ShardWorkers: *workers,
		HumanSample:  *humans,
		// Validation only needs the default configuration.
		Cases: []measure.Case{measure.CaseDefault},
	})
	if err != nil {
		fatal(err)
	}
	defer study.Close()

	results, err := study.RunSurvey()
	if err != nil {
		fatal(err)
	}

	fmt.Println("Internal validation (paper §6.1):")
	report.Table3(os.Stdout, results.Analysis.NewStandardsPerRound())
	perRound := results.Analysis.NewStandardsPerRound()
	if last := perRound[len(perRound)-1]; last < 0.05 {
		fmt.Printf("=> round-%d discovery is %.2f: five rounds suffice, as the paper found\n\n",
			len(perRound), last)
	} else {
		fmt.Printf("=> round-%d discovery is %.2f: additional rounds might still find features\n\n",
			len(perRound), last)
	}

	fmt.Println("External validation (paper §6.2):")
	deltas, err := study.RunExternalValidation(results)
	if err != nil {
		fatal(err)
	}
	report.Figure9(os.Stdout, deltas)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
