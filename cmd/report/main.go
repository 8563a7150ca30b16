// Command report regenerates the paper's tables and figures. It either
// re-runs the survey (default, on the pipeline engine at -shards × -workers;
// every geometry renders the same report) or reads measurements produced by
// cmd/crawl or cmd/pipeline, then renders the requested artifact (or
// everything). The log's format — CSV, binary, even a spill file — is
// auto-detected from its magic bytes; pointing -log at anything else
// reports "unknown log format" with the bytes found.
//
// -spills takes a glob of per-shard spill files and merges them through the
// streaming stats layer: the full log is never materialized, so memory
// grows by a few words per site, not per visit, and every artifact matches
// report -log over the same survey byte for byte.
//
// Usage:
//
//	report -sites 1000 -seed 42                      # run survey, render all
//	report -sites 1000 -seed 42 -only table2         # one artifact
//	report -sites 1000 -seed 42 -log survey.log      # reuse a saved log
//	report -sites 1000 -seed 42 -spills 'sp/*.spill' # warm-start from spills
//	report -sites 1000 -seed 42 -cache dir           # re-run, skipping cached visits
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/logstore"
	"repro/internal/report"
)

func main() {
	var (
		sites      = flag.Int("sites", 1000, "ranking size (must match the log if -log is given)")
		seed       = flag.Int64("seed", 42, "deterministic seed (must match the log if -log is given)")
		shards     = flag.Int("shards", 4, "site partitions when re-running the survey (0 = one)")
		workers    = flag.Int("workers", 2, "browser workers per shard when re-running the survey")
		logPath    = flag.String("log", "", "read measurements from this log file (format auto-detected) instead of crawling")
		spillsGlob = flag.String("spills", "", "merge spill files matching this glob through the streaming stats layer instead of crawling (bounded memory)")
		cacheDir   = flag.String("cache", "", "visit cache directory for survey re-runs")
		cacheLimit = flag.Int64("cache-limit", 0, "visit cache size cap in bytes; least-recently-used entries are pruned (0 = unbounded)")
		only       = flag.String("only", "", "render one artifact: figure1|figure3|figure4|figure5|figure6|figure7|figure8|figure9|table1|table2|table3|headlines")
	)
	flag.Parse()

	if *logPath != "" && *spillsGlob != "" {
		fatal(fmt.Errorf("report: -log and -spills are mutually exclusive"))
	}

	study, err := core.NewStudy(core.Config{
		Sites:         *sites,
		Seed:          *seed,
		Shards:        *shards,
		ShardWorkers:  *workers,
		CacheDir:      *cacheDir,
		CacheMaxBytes: *cacheLimit,
	})
	if err != nil {
		fatal(err)
	}
	defer study.Close()

	var results *core.Results
	switch {
	case *logPath != "":
		log, err := logstore.ReadFile(*logPath)
		if err != nil {
			fatal(err)
		}
		results = study.AggregateResults(analysis.New(log, study.Registry).Agg)
	case *spillsGlob != "":
		paths, err := core.SpillGlob(*spillsGlob)
		if err != nil {
			fatal(err)
		}
		results, err = study.ResultsFromSpills(paths...)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "warm-started from %d spill files (no log materialized)\n", len(paths))
	default:
		results, err = study.RunSurvey()
		if err != nil {
			fatal(err)
		}
		if study.Cache != nil {
			st := study.Cache.Stats()
			fmt.Fprintf(os.Stderr, "visit cache: %d hits, %d misses, %d stored\n", st.Hits, st.Misses, st.Puts)
		}
	}

	if *only == "" {
		if err := study.WriteReport(os.Stdout, results); err != nil {
			fatal(err)
		}
		return
	}

	a := results.Analysis
	switch *only {
	case "figure1":
		report.Figure1(os.Stdout)
	case "table1":
		report.Table1(os.Stdout, results.Stats)
	case "headlines":
		report.Headlines(os.Stdout, a, study.CVEs)
	case "figure3":
		report.Figure3(os.Stdout, a)
	case "figure4":
		report.Figure4(os.Stdout, a)
	case "figure5":
		report.Figure5(os.Stdout, a.VisitWeightedPopularity(study.Ranking()))
	case "figure6":
		report.Figure6(os.Stdout, a.AgeSeries(study.History))
	case "figure7":
		report.Figure7(os.Stdout, a.AdVsTrackerRates())
	case "figure8":
		report.Figure8(os.Stdout, a.Complexity())
	case "figure9":
		deltas, err := study.RunExternalValidation(results)
		if err != nil {
			fatal(err)
		}
		report.Figure9(os.Stdout, deltas)
	case "table2":
		report.Table2(os.Stdout, a.Table2(study.CVEs))
	case "table3":
		report.Table3(os.Stdout, a.NewStandardsPerRound())
	default:
		fatal(fmt.Errorf("unknown artifact %q", *only))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
