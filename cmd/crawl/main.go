// Command crawl runs the paper's automated survey against a generated
// synthetic web and writes the measurement log.
//
// Usage:
//
//	crawl -sites 10000 -seed 42 -rounds 5 -out survey.log -format binary
//
// At -sites 10000 the run reproduces the paper's full scale (four browser
// configurations, five rounds, 13 pages per visit). The survey executes on
// the sharded internal/pipeline engine (-shards partitions × -workers per
// shard); every geometry produces the same log for a seed. Unlike
// cmd/pipeline, crawl can fetch over real HTTP (-http) and takes any list
// of browser configurations (-cases).
//
// The survey keeps no log in memory. With -out the run spills into a
// scratch directory under $TMPDIR, -out converts the files it committed
// there into one log, and the directory is removed when the command exits,
// whether the run succeeded or not. -format picks the log encoding (csv or
// binary); readers auto-detect, so either loads anywhere a log is
// accepted. -cache memoizes visit outcomes on disk so a re-run with an
// overlapping configuration skips completed visits.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/measure"
	"repro/internal/report"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// run owns every resource the command acquires, each released by a defer,
// so a failed run still closes the study and removes its scratch spill
// directory.
func run() error {
	var (
		sites      = flag.Int("sites", 1000, "number of ranked sites to generate and crawl")
		seed       = flag.Int64("seed", 42, "deterministic seed for generation and crawling")
		rounds     = flag.Int("rounds", 5, "visits per (site, configuration)")
		shards     = flag.Int("shards", 4, "site partitions crawled independently (0 = one)")
		workers    = flag.Int("workers", 2, "browser workers per shard")
		cases      = flag.String("cases", "default,blocking,adblock,ghostery", "comma-separated browser configurations")
		useHTTP    = flag.Bool("http", false, "fetch through a real net/http server instead of in-process")
		out        = flag.String("out", "", "write the measurement log to this file")
		format     = flag.String("format", "csv", "log encoding for -out: csv or binary")
		cacheDir   = flag.String("cache", "", "visit cache directory; re-runs skip cached visits")
		cacheLimit = flag.Int64("cache-limit", 0, "visit cache size cap in bytes; least-recently-used entries are pruned (0 = unbounded)")
	)
	flag.Parse()

	var cs []measure.Case
	for _, c := range strings.Split(*cases, ",") {
		c = strings.TrimSpace(c)
		if c != "" {
			cs = append(cs, measure.Case(c))
		}
	}

	var spillDir string
	if *out != "" {
		dir, err := os.MkdirTemp("", "crawl-spill-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		spillDir = dir
	}

	study, err := core.NewStudy(core.Config{
		Sites:         *sites,
		Seed:          *seed,
		Rounds:        *rounds,
		Shards:        *shards,
		ShardWorkers:  *workers,
		Cases:         cs,
		UseHTTP:       *useHTTP,
		LogFormat:     *format,
		CacheDir:      *cacheDir,
		CacheMaxBytes: *cacheLimit,
		SpillDir:      spillDir,
	})
	if err != nil {
		return err
	}
	defer study.Close()

	start := time.Now()
	results, err := study.RunSurvey()
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "survey of %d sites completed in %s\n", *sites, time.Since(start).Round(time.Millisecond))
	if study.Cache != nil {
		st := study.Cache.Stats()
		fmt.Fprintf(os.Stderr, "visit cache: %d hits, %d misses, %d stored\n", st.Hits, st.Misses, st.Puts)
	}

	report.Table1(os.Stdout, results.Stats)

	if *out != "" {
		if err := study.SaveLog(*out, results); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "measurement log written to %s (%s)\n", *out, *format)
	}
	return nil
}
