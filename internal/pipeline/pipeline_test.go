package pipeline

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/crawler"
	"repro/internal/logstore"
	"repro/internal/measure"
	"repro/internal/synthweb"
	"repro/internal/webapi"
	"repro/internal/webidl"
	"repro/internal/webserver"
)

// Shared small study: 90 sites, full methodology, fixed seed. The baseline is
// the log a 1 shard × 1 worker run's spill files hold, computed once; every
// other geometry is compared to it. The repository's root
// TestOracleMatchesGolden holds the engine to a single-threaded visit loop
// and the committed golden digests.
var (
	setupOnce sync.Once
	setupErr  error

	testWeb   *synthweb.Web
	testBind  *webapi.Bindings
	baseLog   *measure.Log
	baseStats *crawler.Stats
)

const (
	testSites = 90
	testSeed  = 11
)

func setup(t testing.TB) {
	t.Helper()
	setupOnce.Do(func() {
		reg, err := webidl.Generate(1)
		if err != nil {
			setupErr = err
			return
		}
		testWeb, err = synthweb.Generate(reg, synthweb.Config{Sites: testSites, Seed: 7})
		if err != nil {
			setupErr = err
			return
		}
		testBind = webapi.NewBindings(reg)
		base, err := New(testWeb, testBind, Config{Shards: 1, WorkersPerShard: 1, SpillDir: t.TempDir(), Crawl: testCrawlConfig()}).Run(context.Background())
		if err != nil {
			setupErr = err
			return
		}
		baseStats = base.Stats
		baseLog, setupErr = logstore.ReadSpillFiles(base.Spills...)
	})
	if setupErr != nil {
		t.Fatal(setupErr)
	}
}

// testCrawlConfig is the paper methodology at the test seed.
func testCrawlConfig() crawler.Config {
	return crawler.DefaultConfig(testSeed)
}

// runOneByOne runs a spilling survey on one shard with one worker, the
// baseline's geometry.
func runOneByOne(t *testing.T, cfg crawler.Config) *Result {
	t.Helper()
	res, err := New(testWeb, testBind, Config{Shards: 1, WorkersPerShard: 1, SpillDir: t.TempDir(), Crawl: cfg}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// spilledLog reassembles the log held by the spill files a run committed.
func spilledLog(t testing.TB, res *Result) *measure.Log {
	t.Helper()
	l, err := logstore.ReadSpillFiles(res.Spills...)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func csvBytes(t testing.TB, l *measure.Log) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := (logstore.CSV{}).Encode(&buf, l); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestPipelineMatchesSequential is the determinism guarantee: the log the
// engine's spill files hold, serialized, is byte-identical to the
// one-worker baseline's for the same seed, across several
// shard/worker/batch/stripe geometries.
func TestPipelineMatchesSequential(t *testing.T) {
	setup(t)
	want := csvBytes(t, baseLog)

	geometries := []struct {
		name    string
		shards  int
		workers int
		batch   int
		stripes int
	}{
		{"1shard-1worker", 1, 1, 1, 1},
		{"1shard-4workers", 1, 4, 4, 8},
		{"4shards-2workers", 4, 2, 16, 16},
		{"8shards-1worker", 8, 1, 3, 4},
	}
	for _, g := range geometries {
		t.Run(g.name, func(t *testing.T) {
			eng := New(testWeb, testBind, Config{
				Shards:          g.shards,
				WorkersPerShard: g.workers,
				BatchSize:       g.batch,
				Stripes:         g.stripes,
				SpillDir:        t.TempDir(),
				Crawl:           testCrawlConfig(),
			})
			res, err := eng.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if got := csvBytes(t, spilledLog(t, res)); !bytes.Equal(got, want) {
				t.Errorf("pipeline log differs from the 1x1 baseline (%d vs %d bytes)", len(got), len(want))
			}
			if *res.Stats != *baseStats {
				t.Errorf("pipeline stats = %+v, want %+v", *res.Stats, *baseStats)
			}
		})
	}
}

// TestFastPathMatchesSlowPath pins the browser's revisit fast path (DOM
// template cloning, page/runtime pooling, precompiled selectors) to the
// from-scratch load path: the same survey run with reuse disabled must
// produce the byte-identical log and stats. The sharded determinism tests
// compare against the same baseline, so transitively every geometry is
// pinned to the slow path too.
func TestFastPathMatchesSlowPath(t *testing.T) {
	setup(t)
	cfg := testCrawlConfig()
	cfg.DisableBrowserReuse = true
	slow := runOneByOne(t, cfg)
	if got, want := csvBytes(t, spilledLog(t, slow)), csvBytes(t, baseLog); !bytes.Equal(got, want) {
		t.Errorf("slow-path log differs from fast-path baseline (%d vs %d bytes)", len(got), len(want))
	}
	if *slow.Stats != *baseStats {
		t.Errorf("slow-path stats = %+v, want %+v", *slow.Stats, *baseStats)
	}
}

// TestExecutionAblationsMatchBaseline pins the two execution-engine
// rewrites — compiled WebScript dispatch and the tokenized ABP matcher
// index — to the interpreted/linear reference: disabling either (or both)
// must reproduce the byte-identical log and stats, on one worker and under a
// sharded geometry. Together with TestFastPathMatchesSlowPath this keeps
// every perf path a pure rearrangement of the same computation.
func TestExecutionAblationsMatchBaseline(t *testing.T) {
	setup(t)
	want := csvBytes(t, baseLog)
	modes := []struct {
		name               string
		noCompile, noIndex bool
	}{
		{"no-script-compile", true, false},
		{"no-matcher-index", false, true},
		{"both-disabled", true, true},
	}
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			cfg := testCrawlConfig()
			cfg.DisableScriptCompile = m.noCompile
			cfg.DisableMatcherIndex = m.noIndex
			res := runOneByOne(t, cfg)
			if got := csvBytes(t, spilledLog(t, res)); !bytes.Equal(got, want) {
				t.Errorf("ablated log differs from baseline (%d vs %d bytes)", len(got), len(want))
			}
			if *res.Stats != *baseStats {
				t.Errorf("ablated stats = %+v, want %+v", *res.Stats, *baseStats)
			}
		})
	}
	t.Run("both-disabled-sharded", func(t *testing.T) {
		cfg := testCrawlConfig()
		cfg.DisableScriptCompile = true
		cfg.DisableMatcherIndex = true
		eng := New(testWeb, testBind, Config{
			Shards:          4,
			WorkersPerShard: 2,
			BatchSize:       8,
			Stripes:         8,
			SpillDir:        t.TempDir(),
			Crawl:           cfg,
		})
		res, err := eng.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if got := csvBytes(t, spilledLog(t, res)); !bytes.Equal(got, want) {
			t.Errorf("sharded ablated log differs from baseline (%d vs %d bytes)", len(got), len(want))
		}
		if *res.Stats != *baseStats {
			t.Errorf("sharded ablated stats = %+v, want %+v", *res.Stats, *baseStats)
		}
	})
}

// fetchCounter counts the successful fetches of a run by URL, across every
// fetcher the run builds.
type fetchCounter struct {
	inner webserver.Fetcher
	mu    sync.Mutex
	n     map[string]int
}

func (c *fetchCounter) Fetch(rawURL string) (synthweb.Resource, error) {
	res, err := c.inner.Fetch(rawURL)
	if err == nil {
		c.mu.Lock()
		c.n[rawURL]++
		c.mu.Unlock()
	}
	return res, err
}

// TestEachURLFetchedOnce pins the per-worker browser cache: a worker's
// configurations share one cache, each site belongs to one worker, and the
// synthetic web's third-party tags are per site, so no URL that fetched
// successfully is fetched twice in a run, however many configurations and
// rounds visit it.
func TestEachURLFetchedOnce(t *testing.T) {
	setup(t)
	for _, g := range []struct{ shards, workers int }{{1, 1}, {2, 2}} {
		t.Run(fmt.Sprintf("%dx%d", g.shards, g.workers), func(t *testing.T) {
			c := &fetchCounter{inner: webserver.DirectFetcher{Web: testWeb}, n: map[string]int{}}
			eng := New(testWeb, testBind, Config{Shards: g.shards, WorkersPerShard: g.workers, SpillDir: t.TempDir(), Crawl: testCrawlConfig()})
			eng.NewFetcher = func() webserver.Fetcher { return c }
			res, err := eng.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(csvBytes(t, spilledLog(t, res)), csvBytes(t, baseLog)) {
				t.Error("log differs from the 1x1 baseline")
			}
			if len(c.n) == 0 {
				t.Fatal("the run fetched nothing through its fetchers")
			}
			var again []string
			for u, n := range c.n {
				if n > 1 {
					again = append(again, fmt.Sprintf("%s (%d times)", u, n))
				}
			}
			slices.Sort(again)
			if len(again) > 0 {
				t.Errorf("%d of %d fetched URLs were fetched more than once, first %s", len(again), len(c.n), again[0])
			}
		})
	}
}

// TestBlockerParseErrorFailsSurvey pins what a malformed filter list or
// tracker library does to a survey. Every worker then fails to build its
// blocking visitor, and Run must return the parse error promptly rather
// than wait on a feeder nobody drains. A default-only survey never parses
// either text, so it must still succeed on the same web.
func TestBlockerParseErrorFailsSurvey(t *testing.T) {
	setup(t)
	// A regenerated twin of the test web: Web holds a mutex, so it is not
	// copied.
	web, err := synthweb.Generate(testWeb.Registry, testWeb.Cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []struct{ name, filters, trackers, want string }{
		{"filter-list", "##\n", testWeb.TrackerLibText, "parsing filter list"},
		{"tracker-library", testWeb.FilterListText, "not|a tracker line\n", "parsing tracker library"},
	} {
		web.FilterListText, web.TrackerLibText = bad.filters, bad.trackers
		// The blocking survey offers every site, more than the shard queues
		// hold, so a feeder left undrained would block; the default-only
		// one crawls a few.
		survey := func(shards, workers int, sites []int, cases ...measure.Case) (*Result, error) {
			cfg := testCrawlConfig()
			cfg.Cases = cases
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			return New(web, testBind, Config{Shards: shards, WorkersPerShard: workers, Sites: sites, Crawl: cfg}).Run(ctx)
		}
		for _, g := range []struct{ shards, workers int }{{1, 1}, {2, 2}} {
			t.Run(fmt.Sprintf("%s-%dx%d", bad.name, g.shards, g.workers), func(t *testing.T) {
				_, err := survey(g.shards, g.workers, nil, measure.CaseDefault, measure.CaseBlocking)
				if err == nil || !strings.Contains(err.Error(), bad.want) {
					t.Fatalf("blocking survey returned %v, want a %q error", err, bad.want)
				}
				res, err := survey(g.shards, g.workers, []int{0, 1, 2, 3}, measure.CaseDefault)
				if err != nil {
					t.Fatalf("default-only survey failed on the same web: %v", err)
				}
				if res.Stats.PagesVisited == 0 {
					t.Fatal("default-only survey visited no pages")
				}
			})
		}
	}
}

// TestPipelineConcurrent exercises the multi-shard engine under the race
// detector: many shards, many workers, tiny batches, few stripes — the
// maximum-contention geometry.
func TestPipelineConcurrent(t *testing.T) {
	setup(t)
	cfg := Config{
		Shards:          4,
		WorkersPerShard: 3,
		BatchSize:       1,
		Stripes:         2,
		SpillDir:        t.TempDir(),
		Crawl:           testCrawlConfig(),
	}
	eng := New(testWeb, testBind, cfg)
	res, err := eng.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.DomainsMeasured != baseStats.DomainsMeasured {
		t.Errorf("measured = %d, want %d", res.Stats.DomainsMeasured, baseStats.DomainsMeasured)
	}
	if !bytes.Equal(csvBytes(t, spilledLog(t, res)), csvBytes(t, baseLog)) {
		t.Error("concurrent pipeline log differs from the 1x1 baseline")
	}
}

// TestPipelineCancellation cancels mid-run and requires a prompt, clean
// ctx.Err() return with no goroutine leak (the -race build would flag
// post-return sends).
func TestPipelineCancellation(t *testing.T) {
	setup(t)
	ctx, cancel := context.WithCancel(context.Background())
	eng := New(testWeb, testBind, Config{
		Shards:          2,
		WorkersPerShard: 2,
		Crawl:           testCrawlConfig(),
	})
	done := make(chan error, 1)
	go func() {
		_, err := eng.Run(ctx)
		done <- err
	}()
	cancel()
	select {
	case err := <-done:
		if err != context.Canceled {
			t.Fatalf("Run returned %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Minute):
		t.Fatal("Run did not return after cancellation")
	}
}

// TestPipelineSpill runs the engine with a spill directory and requires
// Result.Spills to name exactly the shard files it wrote, and those files
// to reassemble into the 1x1 baseline: the spilled partial aggregates carry
// the entire survey.
func TestPipelineSpill(t *testing.T) {
	setup(t)
	dir := t.TempDir()
	eng := New(testWeb, testBind, Config{
		Shards:          3,
		WorkersPerShard: 2,
		SpillDir:        dir,
		Crawl:           testCrawlConfig(),
	})
	res, err := eng.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	paths, err := filepath.Glob(filepath.Join(dir, "shard-*.spill"))
	if err != nil || len(paths) != 3 {
		t.Fatalf("expected 3 spill files, got %v (%v)", paths, err)
	}
	if !slices.Equal(res.Spills, paths) {
		t.Errorf("Result.Spills = %v, want the shard files %v", res.Spills, paths)
	}
	if !bytes.Equal(csvBytes(t, spilledLog(t, res)), csvBytes(t, baseLog)) {
		t.Error("merged spill differs from the 1x1 baseline")
	}
}

// TestPipelineCache is the caching guarantee: a second run over the same
// config is served from the cache (hit counters prove no visit re-ran) and
// produces a byte-identical log; a run over a superset config reuses the
// overlapping visits and crawls only the new ones.
func TestPipelineCache(t *testing.T) {
	setup(t)
	numFeatures := len(testWeb.Registry.Features)
	dir := t.TempDir()

	runWith := func(cache *logstore.Cache, cfg crawler.Config) *Result {
		t.Helper()
		eng := New(testWeb, testBind, Config{
			Shards:          2,
			WorkersPerShard: 2,
			Cache:           cache,
			SpillDir:        t.TempDir(),
			Crawl:           cfg,
		})
		res, err := eng.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	cache, err := logstore.OpenCache(dir, numFeatures, "pipeline-test")
	if err != nil {
		t.Fatal(err)
	}
	cold := runWith(cache, testCrawlConfig())
	coldStats := cache.Stats()
	if coldStats.Hits != 0 || coldStats.Puts == 0 {
		t.Fatalf("cold run should only populate: %+v", coldStats)
	}
	if !bytes.Equal(csvBytes(t, spilledLog(t, cold)), csvBytes(t, baseLog)) {
		t.Error("cold cached run differs from the 1x1 baseline")
	}

	warm := runWith(cache, testCrawlConfig())
	warmStats := cache.Stats()
	if hits := warmStats.Hits - coldStats.Hits; hits != coldStats.Puts {
		t.Errorf("warm run hit %d of %d cached visits", hits, coldStats.Puts)
	}
	if warmStats.Misses != coldStats.Misses {
		t.Errorf("warm run missed %d times", warmStats.Misses-coldStats.Misses)
	}
	if !bytes.Equal(csvBytes(t, spilledLog(t, warm)), csvBytes(t, baseLog)) {
		t.Error("warm cached run not byte-identical to the uncached log")
	}

	// Overlapping (superset) config: one extra round. Every visit of the
	// original rounds must come from the cache.
	wider := testCrawlConfig()
	wider.Rounds++
	res := runWith(cache, wider)
	widerStats := cache.Stats()
	if hits := widerStats.Hits - warmStats.Hits; hits != coldStats.Puts {
		t.Errorf("superset run re-crawled cached visits: %d hits, want %d", hits, coldStats.Puts)
	}
	if got := len(spilledLog(t, res).Cases[measure.CaseDefault].Rounds); got != wider.Rounds {
		t.Errorf("superset run produced %d rounds, want %d", got, wider.Rounds)
	}
}

// TestPipelineRejectsInvalidConfig rejects a crawl config with no rounds or
// branch factor.
func TestPipelineRejectsInvalidConfig(t *testing.T) {
	setup(t)
	eng := New(testWeb, testBind, Config{})
	if _, err := eng.Run(context.Background()); err == nil {
		t.Fatal("Run accepted a zero crawl config")
	}
}
