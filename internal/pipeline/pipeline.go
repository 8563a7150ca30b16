package pipeline

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/crawler"
	"repro/internal/logstore"
	"repro/internal/measure"
	"repro/internal/stats"
	"repro/internal/synthweb"
	"repro/internal/webapi"
	"repro/internal/webserver"
)

// Config parameterizes the sharded engine. The zero value of every field
// picks a sensible default, so Config{Crawl: crawler.DefaultConfig(seed)}
// is a complete configuration.
type Config struct {
	// Shards is the number of independent site partitions; sites are
	// assigned round-robin by index. Default 1.
	Shards int
	// WorkersPerShard is the number of browser workers draining each
	// shard's queue. Default 4.
	WorkersPerShard int
	// BatchSize is the number of completed visits a worker accumulates
	// before folding them into the aggregate (one stripe-lock acquisition
	// per stripe per batch) and, when spilling, flushing them to disk.
	// Default 16.
	BatchSize int
	// QueueDepth bounds each shard's site queue. Bounded queues make a
	// stalled stage exert back-pressure instead of buffering the whole
	// web. Default 2×WorkersPerShard.
	QueueDepth int
	// Stripes is the lock-stripe count of the aggregate. Default 16.
	Stripes int
	// Cache, when non-nil, memoizes visit outcomes on disk keyed by the
	// deterministic VisitSeed. Visits already in the cache are skipped
	// entirely (no browser work) and replayed from disk; the resulting
	// log is identical either way. Cache.Stats() reports the traffic.
	Cache *logstore.Cache
	// SpillDir, when non-empty, streams every shard's completed visits
	// to a spill file (shard-NNN.spill) in this directory as they merge,
	// so the survey's log survives on disk instead of only its aggregate.
	// Result.Spills names the files a run committed;
	// logstore.ReadSpillFiles reassembles them into the full log, and
	// stats.FromSpills folds them into a warm aggregate.
	SpillDir string
	// Spill, when non-nil, is an externally owned spill writer shared by
	// every shard in place of SpillDir's per-shard files. The engine
	// flushes it but never closes it; the caller owns its lifecycle. This
	// is how a distributed worker streams a lease's visits straight onto
	// the wire (internal/dist) instead of into local files.
	Spill *logstore.Writer
	// Sites, when non-nil, restricts the survey to these site indices of
	// the web (a distributed lease); nil crawls every site. The stats
	// aggregate is still sized for the full site list, so subset
	// aggregates from disjoint leases merge into exactly the full-run
	// aggregate.
	Sites []int
	// ResumeSpills names spill streams from a previous, crashed life of
	// this run whose records are replayed into the aggregate before any
	// crawling. The streams must describe the engine's exact study, and
	// the sites they commit must be excluded from Sites — replay plus
	// crawl of the remainder then reproduces the uninterrupted run's
	// aggregate byte for byte, because every fold is commutative.
	ResumeSpills []string
	// SpillTap, when non-nil, wraps each owned shard spill file's writer
	// (SpillDir mode only). It exists for fault injection: crash tests
	// tear spill writes at deterministic points and prove resume
	// reconstructs the run. Production runs leave it nil.
	SpillTap func(shard int, w io.Writer) io.Writer
	// Crawl carries the survey methodology (rounds, branch factor, page
	// budget, cases, seed) and the crawler's reference-path switches.
	Crawl crawler.Config
}

// normalized fills defaults in place of zero fields.
func (cfg Config) normalized() Config {
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	if cfg.WorkersPerShard <= 0 {
		cfg.WorkersPerShard = 4
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 16
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 2 * cfg.WorkersPerShard
	}
	if cfg.Stripes <= 0 {
		cfg.Stripes = 16
	}
	if len(cfg.Crawl.Cases) == 0 {
		cfg.Crawl.Cases = measure.AllCases()
	}
	return cfg
}

// Engine is the sharded crawl→measure→aggregate pipeline, the one survey
// engine. It spreads the visits over Shards×WorkersPerShard browser workers,
// and every geometry produces the same log for the same seed.
type Engine struct {
	Web      *synthweb.Web
	Bindings *webapi.Bindings
	// NewFetcher builds a fetcher per browser, one per configuration on
	// each worker; nil means direct in-process fetching.
	NewFetcher func() webserver.Fetcher
	Cfg        Config
}

// New builds an engine with the direct fetcher.
func New(web *synthweb.Web, bindings *webapi.Bindings, cfg Config) *Engine {
	return &Engine{Web: web, Bindings: bindings, Cfg: cfg}
}

// Result bundles a completed pipeline survey.
type Result struct {
	// Agg is the mergeable statistics aggregate the run maintained
	// incrementally; analysis built from it starts warm, with no log
	// rescan.
	Agg   *stats.Aggregate
	Stats *crawler.Stats
	// Spills names the spill files the run committed, in order: the
	// ResumeSpills it replayed, then each shard's file. Together they hold
	// every visit of the survey, so logstore.ReadSpillFiles(Spills...) is
	// its full log. Nil unless the run spilled to SpillDir.
	Spills []string
}

// SurveyStats summarizes a completed aggregate in the crawler's Stats shape
// (Table 1 of the paper). pageSeconds is the per-page interaction budget.
func SurveyStats(a stats.Source, pageSeconds float64) *crawler.Stats {
	inv, pages := a.Totals()
	measured := a.MeasuredCount()
	return &crawler.Stats{
		DomainsMeasured:    measured,
		DomainsFailed:      a.NumSites() - measured,
		PagesVisited:       pages,
		Invocations:        inv,
		InteractionSeconds: float64(pages) * pageSeconds,
	}
}

// Run executes the survey. The context cancels gracefully: in-flight visits
// finish, queued sites are dropped, and Run returns ctx.Err() without
// leaking goroutines. On success the aggregate, and the log the spill files
// hold, are the same for every geometry, given the same crawl config and
// seed.
func (e *Engine) Run(ctx context.Context) (*Result, error) {
	cfg := e.Cfg.normalized()
	if cfg.Crawl.Rounds <= 0 || cfg.Crawl.Branch <= 0 {
		return nil, fmt.Errorf("pipeline: invalid crawl config %+v", cfg.Crawl)
	}

	domains := make([]string, len(e.Web.Sites))
	for i, s := range e.Web.Sites {
		domains[i] = s.Domain
	}
	numFeatures := len(e.Web.Registry.Features)
	stdOf := stats.StandardsOf(e.Web.Registry)

	// Every shard folds into one aggregate; workers synchronize only on
	// its stripe locks, which sites map to by index.
	agg, err := stats.New(stats.Config{
		NumFeatures: numFeatures,
		NumSites:    len(domains),
		Standards:   stdOf,
		Cases:       cfg.Crawl.Cases,
		Stripes:     cfg.Stripes,
	})
	if err != nil {
		return nil, fmt.Errorf("pipeline: %w", err)
	}

	// Replay the committed records of a previous crashed life before any
	// worker starts: the aggregate opens warm, and the crawl below only
	// covers the sites the caller left in cfg.Sites.
	if len(cfg.ResumeSpills) > 0 {
		s, err := logstore.OpenSpillFiles(cfg.ResumeSpills...)
		if err != nil {
			return nil, fmt.Errorf("pipeline: opening resume spills: %w", err)
		}
		got := s.Domains()
		same := s.NumFeatures() == numFeatures && len(got) == len(domains)
		for i := 0; same && i < len(domains); i++ {
			same = got[i] == domains[i]
		}
		if !same {
			s.Close()
			return nil, fmt.Errorf("pipeline: resume spills describe a different study")
		}
		err = stats.Replay(agg, s)
		if cerr := s.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, fmt.Errorf("pipeline: replaying resume spills: %w", err)
		}
	}

	// Resolve the optional site subset (a distributed lease) up front so
	// an out-of-range index fails the run before any crawling happens.
	sites := e.Web.Sites
	if cfg.Sites != nil {
		sites = make([]*synthweb.Site, len(cfg.Sites))
		for i, idx := range cfg.Sites {
			if idx < 0 || idx >= len(e.Web.Sites) {
				return nil, fmt.Errorf("pipeline: site index %d outside [0,%d)", idx, len(e.Web.Sites))
			}
			sites[i] = e.Web.Sites[idx]
		}
	}

	// Optional spill: one streaming writer per shard, shared by the
	// shard's workers, so partial results land on disk as visits
	// complete instead of existing only in the aggregate. An external
	// cfg.Spill writer is shared by every shard and never closed here.
	spills := make([]*logstore.Writer, cfg.Shards)
	var spillPaths []string
	if cfg.Spill != nil {
		for s := range spills {
			spills[s] = cfg.Spill
		}
	} else if cfg.SpillDir != "" {
		if err := os.MkdirAll(cfg.SpillDir, 0o755); err != nil {
			return nil, fmt.Errorf("pipeline: creating spill dir: %w", err)
		}
		spillPaths = append(spillPaths, cfg.ResumeSpills...)
		for s := range spills {
			var tap func(io.Writer) io.Writer
			if cfg.SpillTap != nil {
				shard := s
				tap = func(w io.Writer) io.Writer { return cfg.SpillTap(shard, w) }
			}
			path := filepath.Join(cfg.SpillDir, fmt.Sprintf("shard-%03d.spill", s))
			w, err := logstore.CreateAtomicTapped(path, numFeatures, domains, tap)
			if err != nil {
				for _, open := range spills[:s] {
					open.Discard()
				}
				return nil, fmt.Errorf("pipeline: creating spill: %w", err)
			}
			spills[s] = w
			spillPaths = append(spillPaths, path)
		}
	}

	// Each shard runs an independent worker pool. Workers surface
	// visitor-construction errors (deterministic config problems)
	// through errOnce.
	var errOnce sync.Once
	var runErr error
	shardQueues := make([]chan *synthweb.Site, cfg.Shards)
	var crawlWG sync.WaitGroup
	for s := 0; s < cfg.Shards; s++ {
		shardQueues[s] = make(chan *synthweb.Site, cfg.QueueDepth)
		for w := 0; w < cfg.WorkersPerShard; w++ {
			crawlWG.Add(1)
			go func(queue <-chan *synthweb.Site, spill *logstore.Writer) {
				defer crawlWG.Done()
				if err := e.crawlWorker(ctx, cfg, numFeatures, queue, agg, spill); err != nil {
					errOnce.Do(func() { runErr = err })
				}
			}(shardQueues[s], spills[s])
		}
	}

	// The sharder partitions sites round-robin by index. Bounded queues
	// provide back-pressure; cancellation stops feeding.
	var feedWG sync.WaitGroup
	feedWG.Add(1)
	go func() {
		defer feedWG.Done()
		defer func() {
			for _, q := range shardQueues {
				close(q)
			}
		}()
		for _, site := range sites {
			select {
			case shardQueues[site.Index%cfg.Shards] <- site:
			case <-ctx.Done():
				return
			}
		}
	}()

	feedWG.Wait()
	crawlWG.Wait()

	if spillPaths != nil {
		// Publish shard spills (tmp → final rename) only after a clean
		// run; a failed or canceled run discards, leaving .partial files
		// whose committed sites the next life's resume scan salvages.
		failed := ctx.Err() != nil || runErr != nil
		for _, w := range spills {
			if w == nil {
				continue
			}
			if failed {
				w.Discard()
				continue
			}
			if err := w.Close(); err != nil {
				errOnce.Do(func() { runErr = fmt.Errorf("pipeline: closing spill: %w", err) })
			}
		}
	} else if cfg.Spill != nil {
		if err := cfg.Spill.Flush(); err != nil {
			errOnce.Do(func() { runErr = fmt.Errorf("pipeline: flushing spill: %w", err) })
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if runErr != nil {
		return nil, runErr
	}

	return &Result{Agg: agg, Stats: SurveyStats(agg, cfg.Crawl.PageSeconds), Spills: spillPaths}, nil
}

// crawlWorker drains one shard queue. The crawler supplies the per-visit
// mechanics (browser stacks, monkey testing, BFS sampling) and the engine
// all scheduling. Each worker builds its own crawler, so its visitors, one
// per configuration with their own extensions and pools, share one
// browser cache that no other worker touches: every page and script the
// worker meets is fetched, parsed and compiled once, not once per
// configuration, and memory holds one set of cache LRUs per worker.
//
// For each site it runs every configured case for every round: a failed
// visit marks the site unmeasurable and skips the case's remaining rounds,
// but other cases still run. Completed visits accumulate into a batch that
// is folded into the run's aggregate — and, when the shard spills,
// flushed to its spill writer — every BatchSize observations. When a
// site's last case finishes, a site-end event rides the same batch, so the
// aggregate retires the site's accumulator and spill readers can do the
// same.
func (e *Engine) crawlWorker(ctx context.Context, cfg Config, numFeatures int, queue <-chan *synthweb.Site, agg *stats.Aggregate, spill *logstore.Writer) error {
	cr := crawler.New(e.Web, e.Bindings, cfg.Crawl)
	cr.NewFetcher = e.NewFetcher
	visitors := make(map[measure.Case]*crawler.Visitor, len(cfg.Crawl.Cases))
	for _, cs := range cfg.Crawl.Cases {
		v, err := cr.NewVisitor(cs)
		if err != nil {
			// Drain the queue so the sharder never blocks on a
			// dead worker pool, then report the config error.
			for range queue {
			}
			return err
		}
		visitors[cs] = v
	}

	var pending stats.Batch
	var workerErr error
	flush := func() {
		if len(pending.Visits) == 0 && len(pending.Fails) == 0 && len(pending.Ends) == 0 {
			return
		}
		if spill != nil && workerErr == nil {
			workerErr = spillBatch(spill, pending)
		}
		if err := agg.Apply(pending); err != nil && workerErr == nil {
			workerErr = err
		}
		pending = stats.Batch{}
	}
	defer flush()

	for site := range queue {
		for _, cs := range cfg.Crawl.Cases {
			v := visitors[cs]
			for round := 0; round < cfg.Crawl.Rounds; round++ {
				if ctx.Err() != nil {
					// Graceful cancellation: stop issuing
					// visits, drain the queue so upstream
					// can close it.
					flush()
					for range queue {
					}
					return workerErr
				}
				seed := crawler.VisitSeed(cfg.Crawl.Seed, site.Index, cs, round)
				out := e.visit(v, cfg.Cache, numFeatures, site, cs, seed)
				if out.Failed {
					pending.Fails = append(pending.Fails, site.Index)
					break
				}
				pending.Visits = append(pending.Visits, stats.Visit{
					Case:        cs,
					Round:       round,
					Site:        site.Index,
					Features:    out.Features,
					Invocations: out.Invocations,
					Pages:       out.Pages,
				})
				if len(pending.Visits) >= cfg.BatchSize {
					flush()
				}
			}
		}
		pending.Ends = append(pending.Ends, site.Index)
	}
	flush()
	return workerErr
}

// visit performs (or replays) one crawl. With a cache configured, the
// outcome keyed by the visit's deterministic seed is served from disk when
// present; otherwise the crawl runs and its outcome — success or failure —
// is stored for the next overlapping run. Cache write errors are swallowed:
// the cache accelerates, it never fails a survey.
func (e *Engine) visit(v *crawler.Visitor, cache *logstore.Cache, numFeatures int, site *synthweb.Site, cs measure.Case, seed int64) logstore.VisitOutcome {
	if cache != nil {
		if out, ok := cache.Get(seed, cs); ok {
			return out
		}
	}
	var out logstore.VisitOutcome
	counts, pages, err := v.CrawlOnce(site, seed)
	if err != nil {
		out.Failed = true
	} else {
		out.Features = measure.NewBitset(numFeatures)
		for id, n := range counts {
			out.Features.Set(id)
			out.Invocations += n
		}
		out.Pages = pages
	}
	if cache != nil {
		_ = cache.Put(seed, cs, out)
	}
	return out
}

// spillBatch streams a flushed batch to the shard's spill writer: visits,
// then failures, then site-end markers — the same order the aggregate
// applies them, so a site's end marker always follows its last visit.
func spillBatch(w *logstore.Writer, b stats.Batch) error {
	for _, v := range b.Visits {
		if err := w.Append(logstore.Observation{
			Case:        v.Case,
			Round:       v.Round,
			Site:        v.Site,
			Features:    v.Features,
			Invocations: v.Invocations,
			Pages:       v.Pages,
		}); err != nil {
			return err
		}
	}
	for _, site := range b.Fails {
		if err := w.Fail(site); err != nil {
			return err
		}
	}
	for _, site := range b.Ends {
		if err := w.EndSite(site); err != nil {
			return err
		}
	}
	return w.Flush()
}
