// Command pipeline runs the sharded crawl→measure→aggregate engine and
// prints the paper's headline tables from a single parallel pass: survey
// scale (Table 1), feature popularity (§5.1), and — when a blocking profile
// is selected — the blocked-vs-unblocked feature deltas behind Figure 4.
//
// Usage:
//
//	pipeline -sites 10000 -seed 42 -shards 8 -workers 4 -profile blocking
//
// The blocking profile picks the browser configurations to crawl:
//
//	none      default browser only
//	adblock   default + AdBlock Plus
//	ghostery  default + Ghostery
//	blocking  default + AdBlock Plus + Ghostery combined (the paper's pair)
//	all       every configuration (adds the Figure 7 singles)
//
// Sharding never changes results: every -shards × -workers geometry writes
// the byte-identical log for a seed, only faster or slower.
//
// Every run folds its visits into one mergeable statistics aggregate and
// keeps no log in memory, so memory grows by a few words per site instead
// of with every visit. -spill streams each shard's completed visits to
// shard-NNN.spill files as they happen (report -spills replays them).
// -out converts the spill files the run committed into one measurement
// log; without -spill the run spills into a scratch directory under
// $TMPDIR, removed when the command exits, whether the run succeeded or
// not. -format picks the -out encoding (csv or binary; readers
// auto-detect).
//
// -cache memoizes visit outcomes on disk: a second run with an overlapping
// configuration skips every completed visit (the hit counters printed at
// the end prove it) and produces a byte-identical log; -cache-limit caps
// the cache's size, pruning least-recently-used entries.
//
// Flag misuse exits 2; a run that fails exits 1.
//
// # Distributed surveys
//
// -coordinator and -worker run the survey across machines
// (internal/dist; docs/OPERATIONS.md is the runbook):
//
//	pipeline -sites 10000 -seed 42 -coordinator :9090          # on one machine
//	pipeline -worker coord-host:9090 -shards 2 -workers 4      # on each worker
//
// The coordinator partitions the site list into leases (-lease sites
// each), ships the study spec to every connecting worker, folds each
// completed lease's streamed spill data into a merged aggregate — re-issuing
// the leases of workers that die (-heartbeat silence) — and prints exactly
// the tables a single-machine run of the same flags prints, byte for byte.
// Workers take their survey methodology from the coordinator, so only
// engine-geometry flags (-shards, -workers, -batch, -cache…) matter on the
// worker command line.
//
// # Crash recovery
//
// Every run can be killed and resumed without losing committed work or
// double-counting any visit (docs/OPERATIONS.md § Crash recovery):
//
//   - Single machine: a -spill run re-run with -resume replays the sites
//     whose spill records committed durably and crawls only the rest; the
//     tables, and the log -out writes, are byte-identical to an
//     uninterrupted run's.
//   - Coordinator: -checkpoint journals every committed lease, fsynced;
//     restarting the same command over the same file re-issues only the
//     unfinished leases. -seed-spills promotes a crashed single-machine
//     run's spill directory into already-merged leases.
//   - Worker: -reconnect N redials a restarted coordinator with backoff
//     instead of exiting on the first broken connection.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"time"

	"repro/internal/blocking"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/measure"
	"repro/internal/report"
	"repro/internal/stats"
)

// usageError marks flag misuse, which exits 2 like the flag package's own
// errors; any other error is a failed run and exits 1.
type usageError struct{ error }

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		if errors.As(err, new(usageError)) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// run owns every resource the command acquires, each released by a defer,
// so a failed or interrupted run still closes the study and removes its
// scratch spill directory.
func run() error {
	var (
		sites      = flag.Int("sites", 1000, "number of ranked sites to generate and crawl")
		seed       = flag.Int64("seed", 42, "deterministic seed for generation and crawling")
		rounds     = flag.Int("rounds", 5, "visits per (site, configuration)")
		shards     = flag.Int("shards", 4, "site partitions crawled independently")
		workers    = flag.Int("workers", 4, "browser workers per shard")
		batch      = flag.Int("batch", 0, "visits merged per batch (0 = engine default)")
		profile    = flag.String("profile", "blocking", "blocking profile: none, adblock, ghostery, blocking, or all")
		topN       = flag.Int("top", 15, "rows in the popularity and delta tables")
		timeout    = flag.Duration("timeout", 0, "abort the crawl after this duration (0 = none)")
		out        = flag.String("out", "", "write the measurement log to this file")
		format     = flag.String("format", "csv", "log encoding for -out: csv or binary")
		cacheDir   = flag.String("cache", "", "visit cache directory; re-runs skip cached visits")
		cacheLimit = flag.Int64("cache-limit", 0, "visit cache size cap in bytes; least-recently-used entries are pruned (0 = unbounded)")
		spillDir   = flag.String("spill", "", "stream per-shard spill files to this directory")
		resume     = flag.Bool("resume", false, "resume a crashed -spill run: replay committed sites from -spill and crawl only the rest")
		coord      = flag.String("coordinator", "", "run as survey coordinator, listening on this host:port for workers")
		workerAddr = flag.String("worker", "", "run as survey worker, connecting to this coordinator host:port")
		leaseSites = flag.Int("lease", 0, "coordinator: sites per worker lease (0 = default 64)")
		heartbeat  = flag.Duration("heartbeat", 0, "coordinator: declare a worker dead after this much silence and re-issue its lease (0 = default 10s)")
		checkpoint = flag.String("checkpoint", "", "coordinator: journal committed leases to this file; restarting over it re-issues only unfinished leases")
		seedSpills = flag.String("seed-spills", "", "coordinator: spill-file glob from a crashed single-machine run of the same study; fully covered leases merge without re-crawling")
		reconnect  = flag.Int("reconnect", 0, "worker: survive coordinator restarts, redialing with backoff up to this many consecutive failed attempts (0 = exit on disconnect)")
	)
	flag.Parse()

	if *coord != "" && *workerAddr != "" {
		return usageError{errors.New("pipeline: -coordinator and -worker are mutually exclusive")}
	}
	if *coord != "" && *out != "" {
		return usageError{errors.New("pipeline: the coordinator merges aggregates, not logs; -out is unavailable in coordinator mode (run workers with -spill for on-disk copies of what they stream)")}
	}
	if *workerAddr != "" && *out != "" {
		return usageError{errors.New("pipeline: workers take the survey from the coordinator; -out does not apply in worker mode (-spill keeps local copies of streamed leases)")}
	}
	if *resume && *spillDir == "" {
		return usageError{errors.New("pipeline: -resume replays the spill directory of a crashed run; it requires -spill")}
	}
	if *resume && (*coord != "" || *workerAddr != "") {
		return usageError{errors.New("pipeline: -resume is single-machine; coordinators resume from -checkpoint, and -seed-spills promotes a crashed local run")}
	}
	if (*checkpoint != "" || *seedSpills != "") && *coord == "" {
		return usageError{errors.New("pipeline: -checkpoint and -seed-spills apply only in -coordinator mode")}
	}

	ctxRoot, stopRoot := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stopRoot()

	if *workerAddr != "" {
		return runWorker(ctxRoot, *workerAddr, *spillDir, *reconnect, core.Config{
			Shards:        *shards,
			ShardWorkers:  *workers,
			BatchSize:     *batch,
			CacheDir:      *cacheDir,
			CacheMaxBytes: *cacheLimit,
		})
	}

	prof, err := blocking.ParseProfile(*profile)
	if err != nil {
		return usageError{err}
	}

	spill := *spillDir
	if *out != "" && spill == "" {
		dir, err := os.MkdirTemp("", "pipeline-spill-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		spill = dir
	}

	study, err := core.NewStudy(core.Config{
		Sites:         *sites,
		Seed:          *seed,
		Rounds:        *rounds,
		Cases:         prof.Cases(),
		Shards:        *shards,
		ShardWorkers:  *workers,
		BatchSize:     *batch,
		LogFormat:     *format,
		CacheDir:      *cacheDir,
		CacheMaxBytes: *cacheLimit,
		SpillDir:      spill,
		Resume:        *resume,
	})
	if err != nil {
		return err
	}
	defer study.Close()

	ctx := ctxRoot
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	start := time.Now()
	var results *core.Results
	if *coord != "" {
		agg, err := runCoordinator(ctx, *coord, study, *leaseSites, *heartbeat, *checkpoint, *seedSpills)
		if err != nil {
			return err
		}
		results = study.AggregateResults(agg)
		fmt.Fprintf(os.Stderr, "%d sites × %d cases × %d rounds in %s (distributed)\n",
			*sites, len(prof.Cases()), *rounds, time.Since(start).Round(time.Millisecond))
	} else {
		results, err = study.RunSurveyContext(ctx)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "%d sites × %d cases × %d rounds in %s (%d shards × %d workers)\n",
			*sites, len(prof.Cases()), *rounds, time.Since(start).Round(time.Millisecond), *shards, *workers)
		if *resume {
			fmt.Fprintf(os.Stderr, "resume: %d sites replayed from committed spills, %d crawled fresh\n",
				results.Resumed, *sites-results.Resumed)
		}
	}
	if study.Cache != nil {
		st := study.Cache.Stats()
		fmt.Fprintf(os.Stderr, "visit cache: %d hits, %d misses, %d stored\n", st.Hits, st.Misses, st.Puts)
	}
	if *spillDir != "" && *coord == "" {
		fmt.Fprintf(os.Stderr, "per-shard spill files in %s\n", *spillDir)
	}

	report.Table1(os.Stdout, results.Stats)
	fmt.Println()

	a := results.Analysis
	fmt.Printf("Feature popularity (top %d of %d features, %s case)\n", *topN, len(study.Registry.Features), measure.CaseDefault)
	fmt.Printf("%-8s %-44s %8s %9s\n", "rank", "feature", "sites", "fraction")
	for i, row := range a.TopFeatures(measure.CaseDefault, *topN) {
		fmt.Printf("%-8d %-44s %8d %8.1f%%\n", i+1, row.Name, row.Sites, 100*row.Fraction)
	}

	if blockedCase, ok := prof.BlockingCase(); ok {
		fmt.Println()
		fmt.Printf("Blocked-vs-unblocked deltas (top %d drops, %s vs %s)\n", *topN, measure.CaseDefault, blockedCase)
		fmt.Printf("%-44s %8s %8s %6s %8s\n", "feature", "default", "blocked", "drop", "rate")
		for _, row := range a.FeatureDeltas(measure.CaseDefault, blockedCase, *topN) {
			fmt.Printf("%-44s %8d %8d %6d %7.1f%%\n", row.Name, row.BaseSites, row.BlockedSites, row.Drop, 100*row.DropRate)
		}
	}

	if *out != "" {
		if err := study.SaveLog(*out, results); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "measurement log written to %s (%s)\n", *out, *format)
	}
	return nil
}

// runCoordinator serves the survey to remote workers and returns the merged
// aggregate. Survey methodology comes from the local study's flags; workers
// receive it in the study spec and never need matching flags. With a
// checkpoint path, committed leases are journaled durably and a restart
// over the same file re-issues only unfinished leases; seedSpills promotes
// a crashed single-machine run's spill files into already-merged leases.
func runCoordinator(ctx context.Context, addr string, study *core.Study, leaseSites int, heartbeat time.Duration, checkpoint, seedSpills string) (*stats.Aggregate, error) {
	spec, err := study.Spec()
	if err != nil {
		return nil, err
	}
	cfg := dist.CoordinatorConfig{
		Spec:             spec,
		NumSites:         len(study.Web.Sites),
		NumFeatures:      len(study.Registry.Features),
		Standards:        stats.StandardsOf(study.Registry),
		Cases:            study.Cfg.Cases,
		LeaseSites:       leaseSites,
		HeartbeatTimeout: heartbeat,
		CheckpointPath:   checkpoint,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	}
	if seedSpills != "" {
		paths, err := core.SpillGlob(seedSpills)
		if err != nil {
			return nil, err
		}
		cfg.SeedSpills = paths
		cfg.Domains = study.Domains()
	}
	c, err := dist.Listen(addr, cfg)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "coordinator listening on %s (%d leases); start workers with: pipeline -worker %s\n",
		c.Addr(), c.Leases(), c.Addr())
	return c.Serve(ctx)
}

// runWorker joins a coordinator and crawls leases until the survey ends.
// opts carries only worker-local engine geometry; the survey methodology
// arrives in the coordinator's study spec. spillDir, when set, keeps local
// lease-NNN.spill copies of everything streamed home. reconnect > 0 makes
// the worker survive coordinator restarts instead of exiting on the first
// broken connection.
func runWorker(ctx context.Context, addr, spillDir string, reconnect int, opts core.Config) error {
	var study *core.Study
	defer func() {
		if study != nil {
			study.Close()
		}
	}()
	return dist.Run(ctx, dist.WorkerConfig{
		Addr:                 addr,
		SpillDir:             spillDir,
		MaxReconnectAttempts: reconnect,
		Build: func(spec []byte) (dist.CrawlFunc, error) {
			s, err := core.StudyFromSpec(spec, opts)
			if err != nil {
				return nil, err
			}
			study = s
			return func(ctx context.Context, sites []int, spill io.Writer) error {
				return s.CrawlSites(ctx, sites, spill)
			}, nil
		},
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	})
}
