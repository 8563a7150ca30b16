package pipeline

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/crawler"
	"repro/internal/measure"
	"repro/internal/standards"
	"repro/internal/stats"
)

// benchCrawlConfig shrinks the methodology (2 rounds, default+blocking) so a
// benchmark iteration stays under a second per worker; the scheduling and
// merging costs under measurement are unchanged.
func benchCrawlConfig() crawler.Config {
	cfg := crawler.DefaultConfig(testSeed)
	cfg.Rounds = 2
	return cfg
}

// BenchmarkPipeline sweeps worker counts at fixed methodology. 1x1 is the
// single-worker survey (90 sites × 4 cases × 2 rounds = 720 visits) whose
// numbers BENCH_baseline.json tracks; on multi-core hardware the 8-worker
// geometry (2 shards × 4 workers) should beat it by ≥2×, and on a
// single-core host the sweep instead shows the engine's overhead staying in
// the noise.
func BenchmarkPipeline(b *testing.B) {
	setup(b)
	geometries := []struct {
		name      string
		shards    int
		workers   int
		spillOnly bool
	}{
		{"1x1", 1, 1, false},
		{"1x2", 1, 2, false},
		{"2x2", 2, 2, false},
		{"2x4-8workers", 2, 4, false},
		{"2x2-spillonly", 2, 2, true},
	}
	for _, g := range geometries {
		b.Run(g.name, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng := New(testWeb, testBind, Config{
					Shards:          g.shards,
					WorkersPerShard: g.workers,
					SpillOnly:       g.spillOnly,
					Crawl:           benchCrawlConfig(),
				})
				if _, err := eng.Run(context.Background()); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(testSites)*float64(b.N)/b.Elapsed().Seconds(), "sites/s")
		})
	}
}

// benchVisit synthesizes the visit of one (site, case, round) cell: a
// sparse ~4-feature bitset, the dominant shape of real visits.
func benchVisit(numFeatures int, cs measure.Case, round, site int) stats.Visit {
	features := measure.NewBitset(numFeatures)
	for _, id := range []int{1, 40, 200, 512} {
		features.Set((id + site) % numFeatures)
	}
	return stats.Visit{
		Case: cs, Round: round, Site: site,
		Features: features, Invocations: 13, Pages: 13,
	}
}

// feedAggregate streams a full synthetic survey (every cell of every site)
// through an aggregate the way a pipeline worker does: batched visits with
// an end-of-site fold after each site's last case.
func feedAggregate(b *testing.B, agg *stats.Aggregate, numFeatures, sites, rounds int, cases []measure.Case) {
	b.Helper()
	var bt stats.Batch
	for site := 0; site < sites; site++ {
		for _, cs := range cases {
			for round := 0; round < rounds; round++ {
				bt.Visits = append(bt.Visits, benchVisit(numFeatures, cs, round, site))
				if len(bt.Visits) == 16 {
					if err := agg.Apply(bt); err != nil {
						b.Fatal(err)
					}
					bt = stats.Batch{}
				}
			}
		}
		bt.Ends = append(bt.Ends, site)
	}
	if err := agg.Apply(bt); err != nil {
		b.Fatal(err)
	}
}

// benchStandards fabricates a per-feature standard mapping from the real
// catalog, round-robin.
func benchStandards(numFeatures int) []standards.Abbrev {
	catalog := standards.Catalog()
	out := make([]standards.Abbrev, numFeatures)
	for i := range out {
		out[i] = catalog[i%len(catalog)].Abbrev
	}
	return out
}

// BenchmarkAggregateMerge isolates the aggregate feed: pure fold and
// synchronization cost, no browsing, for both the keep-log grid and the
// spill-only bounded mode.
func BenchmarkAggregateMerge(b *testing.B) {
	cases := benchCrawlConfig().Cases
	const numFeatures = 1024
	for _, mode := range []struct {
		name    string
		keepLog bool
	}{{"keeplog", true}, {"spillonly", false}} {
		b.Run(mode.name, func(b *testing.B) {
			cfg := stats.Config{
				NumFeatures: numFeatures,
				NumSites:    testSites,
				Standards:   benchStandards(numFeatures),
				Cases:       cases,
				Rounds:      2,
				Stripes:     16,
				KeepLog:     mode.keepLog,
			}
			if mode.keepLog {
				cfg.Domains = make([]string, testSites)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				agg, err := stats.New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				feedAggregate(b, agg, numFeatures, testSites, 2, cases)
				if mode.keepLog {
					agg.Log()
				} else {
					agg.FeatureSites(measure.CaseDefault)
				}
			}
		})
	}
}

// BenchmarkAggregateMemoryScaling is the spill-only acceptance benchmark:
// as the site count scales, live aggregate memory must grow only by each
// retired site's default-case standard set (two words at 75 standards),
// because a retired site leaves nothing else but counter increments behind.
// Keep-log aggregates are measured alongside for contrast — their grids
// grow with every visit's feature set. The
// live-MB metric is the heap growth attributable to the one aggregate held
// at measurement time.
func BenchmarkAggregateMemoryScaling(b *testing.B) {
	cases := []measure.Case{measure.CaseDefault, measure.CaseBlocking}
	const numFeatures = 1024
	stdOf := benchStandards(numFeatures)
	for _, mode := range []struct {
		name    string
		keepLog bool
	}{{"spillonly", false}, {"keeplog", true}} {
		for _, sites := range []int{1_000, 4_000, 16_000} {
			b.Run(mode.name+"/"+itoa(sites), func(b *testing.B) {
				cfg := stats.Config{
					NumFeatures: numFeatures,
					NumSites:    sites,
					Standards:   stdOf,
					Cases:       cases,
					Rounds:      2,
					Stripes:     16,
					KeepLog:     mode.keepLog,
				}
				if mode.keepLog {
					cfg.Domains = make([]string, sites)
				}
				b.ReportAllocs()
				var live float64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					var before, after runtime.MemStats
					runtime.GC()
					runtime.ReadMemStats(&before)
					agg, err := stats.New(cfg)
					if err != nil {
						b.Fatal(err)
					}
					feedAggregate(b, agg, numFeatures, sites, 2, cases)
					runtime.GC()
					runtime.ReadMemStats(&after)
					live += float64(after.HeapAlloc) - float64(before.HeapAlloc)
					runtime.KeepAlive(agg)
				}
				b.ReportMetric(live/float64(b.N)/(1<<20), "live-MB")
			})
		}
	}
}

func itoa(n int) string {
	switch n {
	case 1_000:
		return "1k-sites"
	case 4_000:
		return "4k-sites"
	case 16_000:
		return "16k-sites"
	}
	return "sites"
}
