package pipeline

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"repro/internal/analysis"
	"repro/internal/crawler"
	"repro/internal/cve"
	"repro/internal/firefoxhist"
	"repro/internal/logstore"
	"repro/internal/measure"
	"repro/internal/report"
	"repro/internal/stats"
)

// renderHeadlines renders every artifact the engines must agree on, byte
// for byte: Table 1, the feature popularity and blocked-vs-unblocked
// headline tables, and the standard-level figures and tables. (Figure 9
// needs a core.Study's human protocol; TestGolden pins it on the log and
// spill paths alike.)
func renderHeadlines(a *analysis.Analysis, st *crawler.Stats, db *cve.Database, hist *firefoxhist.History) string {
	var buf bytes.Buffer
	report.Table1(&buf, st)
	for i, row := range a.TopFeatures(measure.CaseDefault, 15) {
		fmt.Fprintf(&buf, "%-8d %-44s %8d %8.1f%%\n", i+1, row.Name, row.Sites, 100*row.Fraction)
	}
	for _, row := range a.FeatureDeltas(measure.CaseDefault, measure.CaseBlocking, 15) {
		fmt.Fprintf(&buf, "%-44s %8d %8d %6d %7.1f%%\n", row.Name, row.BaseSites, row.BlockedSites, row.Drop, 100*row.DropRate)
	}
	report.Headlines(&buf, a, db)
	report.Figure3(&buf, a)
	report.Figure4(&buf, a)
	report.Figure5(&buf, a.VisitWeightedPopularity(testWeb.Ranking))
	report.Figure6(&buf, a.AgeSeries(hist))
	report.Figure7(&buf, a.AdVsTrackerRates())
	report.Table2(&buf, a.Table2(db))
	report.Table3(&buf, a.NewStandardsPerRound())
	report.Figure8(&buf, a.Complexity())
	return buf.String()
}

// TestSpillOnlyMatchesInMemory is the aggregate's acceptance test: at every
// tested geometry, a run must render reports byte-identical to the cold
// analysis of the baseline log, whether the warm analysis is built from the
// run's live aggregate or from its spill files via stats.FromSpills — and
// the spill files must reassemble into the byte-identical full log.
func TestSpillOnlyMatchesInMemory(t *testing.T) {
	setup(t)
	db := cve.Generate(1)
	hist := firefoxhist.New(testWeb.Registry)
	cold := renderHeadlines(
		analysis.New(baseLog, testWeb.Registry),
		baseStats, db, hist,
	)

	geometries := []struct {
		name    string
		shards  int
		workers int
		batch   int
	}{
		{"1shard-1worker", 1, 1, 1},
		{"2shards-2workers", 2, 2, 4},
		{"4shards-2workers", 4, 2, 16},
	}
	for _, g := range geometries {
		t.Run(g.name, func(t *testing.T) {
			dir := t.TempDir()
			eng := New(testWeb, testBind, Config{
				Shards:          g.shards,
				WorkersPerShard: g.workers,
				BatchSize:       g.batch,
				SpillDir:        dir,
				Crawl:           testCrawlConfig(),
			})
			res, err := eng.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if *res.Stats != *baseStats {
				t.Errorf("stats = %+v, want %+v", *res.Stats, *baseStats)
			}

			warm := renderHeadlines(analysis.FromStats(res.Agg, testWeb.Registry), res.Stats, db, hist)
			if warm != cold {
				t.Error("live aggregate renders different reports than the baseline log")
			}

			paths := res.Spills
			if len(paths) != g.shards {
				t.Fatalf("expected %d spill files, got %v", g.shards, paths)
			}
			merged, err := stats.FromSpills(stats.StandardsOf(testWeb.Registry), testCrawlConfig().Cases, paths...)
			if err != nil {
				t.Fatal(err)
			}
			spillStats := SurveyStats(merged, testCrawlConfig().PageSeconds)
			if *spillStats != *baseStats {
				t.Errorf("spill-merged stats = %+v, want %+v", *spillStats, *baseStats)
			}
			replayed := renderHeadlines(analysis.FromStats(merged, testWeb.Registry), spillStats, db, hist)
			if replayed != cold {
				t.Error("spill-merged aggregate renders different reports than the baseline log")
			}

			// The spill files still carry the complete log.
			logFromSpills, err := logstore.ReadSpillFiles(paths...)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(csvBytes(t, logFromSpills), csvBytes(t, baseLog)) {
				t.Error("reassembled spill log differs from the 1x1 baseline")
			}
		})
	}
}

// TestSpillOnlyConcurrent exercises a run that keeps no spill files under
// the race detector: many shards and workers, tiny batches, few stripes,
// every worker folding into the one aggregate.
func TestSpillOnlyConcurrent(t *testing.T) {
	setup(t)
	eng := New(testWeb, testBind, Config{
		Shards:          4,
		WorkersPerShard: 3,
		BatchSize:       1,
		Stripes:         2,
		Crawl:           testCrawlConfig(),
	})
	res, err := eng.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Spills != nil {
		t.Errorf("a run without SpillDir reports spill files %v", res.Spills)
	}
	if *res.Stats != *baseStats {
		t.Errorf("concurrent stats = %+v, want %+v", *res.Stats, *baseStats)
	}
	cold := analysis.New(baseLog, testWeb.Registry)
	warm := analysis.FromStats(res.Agg, testWeb.Registry)
	if !reflect.DeepEqual(warm.FeatureSites(measure.CaseDefault), cold.FeatureSites(measure.CaseDefault)) {
		t.Error("concurrent feature-site counts diverge from the baseline")
	}
}

// TestWarmAnalysisMatchesCold is the warm-start acceptance test: both
// aggregate paths into an analysis — the pipeline's live aggregate and the
// fold of the baseline log that analysis.New builds — must answer every
// method, Figure 5's and Figure 9's per-site ones included, exactly as the
// reference scan of the baseline log does.
func TestWarmAnalysisMatchesCold(t *testing.T) {
	setup(t)
	eng := New(testWeb, testBind, Config{
		Shards:          2,
		WorkersPerShard: 2,
		Crawl:           testCrawlConfig(),
	})
	res, err := eng.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Agg == nil {
		t.Fatal("run returned no aggregate")
	}

	reg := testWeb.Registry
	scan := scanSource{log: baseLog, stdOf: stats.StandardsOf(reg), cases: measure.AllCases()}
	if diffs := sourceDiffs(res.Agg, scan); len(diffs) > 0 {
		t.Errorf("pipeline aggregate diverges from the reference scan on %v", diffs)
	}
	ref := analysis.FromStats(scan, reg)
	db := cve.Generate(1)
	hist := firefoxhist.New(reg)

	for _, fold := range []struct {
		name string
		a    *analysis.Analysis
	}{
		{"pipeline aggregate", analysis.FromStats(res.Agg, reg)},
		{"log fold", analysis.New(baseLog, reg)},
	} {
		a := fold.a
		for _, cs := range measure.AllCases() {
			if !reflect.DeepEqual(a.FeatureSites(cs), ref.FeatureSites(cs)) {
				t.Errorf("%s: FeatureSites(%s) diverges from the scan", fold.name, cs)
			}
			if !reflect.DeepEqual(a.StandardSites(cs), ref.StandardSites(cs)) {
				t.Errorf("%s: StandardSites(%s) diverges from the scan", fold.name, cs)
			}
			if a.Bands(cs) != ref.Bands(cs) {
				t.Errorf("%s: Bands(%s) diverges from the scan", fold.name, cs)
			}
			if !reflect.DeepEqual(a.BlockRates(cs), ref.BlockRates(cs)) {
				t.Errorf("%s: BlockRates(%s) diverges from the scan", fold.name, cs)
			}
			if a.UsedStandards(cs) != ref.UsedStandards(cs) {
				t.Errorf("%s: UsedStandards(%s) diverges from the scan", fold.name, cs)
			}
		}
		// BlockRates against a case the survey never ran: everything
		// blocked.
		if !reflect.DeepEqual(a.BlockRates("never-ran"), ref.BlockRates("never-ran")) {
			t.Errorf("%s: BlockRates(untracked) diverges from the scan", fold.name)
		}

		refComplexity := ref.Complexity()
		sort.Ints(refComplexity)
		if !reflect.DeepEqual(a.Complexity(), refComplexity) {
			t.Errorf("%s: Complexity multiset diverges from the scan", fold.name)
		}
		if !reflect.DeepEqual(a.StandardPopularityCDF(), ref.StandardPopularityCDF()) {
			t.Errorf("%s: StandardPopularityCDF diverges from the scan", fold.name)
		}
		if !reflect.DeepEqual(a.NewStandardsPerRound(), ref.NewStandardsPerRound()) {
			t.Errorf("%s: NewStandardsPerRound diverges from the scan", fold.name)
		}
		if !reflect.DeepEqual(a.Table2(db), ref.Table2(db)) {
			t.Errorf("%s: Table2 diverges from the scan", fold.name)
		}
		if !reflect.DeepEqual(a.AgeSeries(hist), ref.AgeSeries(hist)) {
			t.Errorf("%s: AgeSeries diverges from the scan", fold.name)
		}
		if !reflect.DeepEqual(a.AdVsTrackerRates(), ref.AdVsTrackerRates()) {
			t.Errorf("%s: AdVsTrackerRates diverges from the scan", fold.name)
		}
		if !reflect.DeepEqual(a.TopFeatures(measure.CaseDefault, 0), ref.TopFeatures(measure.CaseDefault, 0)) {
			t.Errorf("%s: TopFeatures diverges from the scan", fold.name)
		}
		if !reflect.DeepEqual(
			a.FeatureDeltas(measure.CaseDefault, measure.CaseBlocking, 0),
			ref.FeatureDeltas(measure.CaseDefault, measure.CaseBlocking, 0),
		) {
			t.Errorf("%s: FeatureDeltas diverges from the scan", fold.name)
		}
		if !reflect.DeepEqual(a.VisitWeightedPopularity(testWeb.Ranking), ref.VisitWeightedPopularity(testWeb.Ranking)) {
			t.Errorf("%s: VisitWeightedPopularity diverges from the scan", fold.name)
		}
		// A human who saw the next site's default-case features: the
		// delta counts the standards of that set missing from this site's.
		for site := range testWeb.Sites {
			human := make(map[int]int64)
			next := baseLog.SiteUnion(measure.CaseDefault, (site+1)%len(testWeb.Sites))
			next.ForEach(baseLog.NumFeatures, func(id int) { human[id] = 1 })
			if got, want := a.HumanDelta(site, human), ref.HumanDelta(site, human); got != want {
				t.Errorf("%s: HumanDelta(%d) = %d, the scan says %d", fold.name, site, got, want)
			}
		}
	}
}
