// Package repro's root benchmark harness regenerates every table and figure
// of "Browser Feature Usage on the Modern Web" (IMC 2016) against a shared
// surveyed study, and sweeps the crawl's design choices as ablations: path
// novelty, the monkey-testing budget, rounds and branch factor. The
// execution-engine ablations are described in docs/ARCHITECTURE.md, §3b
// "Compile-once, execute-many". Run with:
//
//	go test -bench=. -benchmem
//
// Each benchmark reports, besides timing, the key reproduction metric of its
// artifact (e.g. never-used features for §5.3, block rates for Figure 4) via
// b.ReportMetric, so a bench run doubles as a results regeneration.
package repro

import (
	"context"
	"io"
	"sync"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/crawler"
	"repro/internal/measure"
	"repro/internal/pipeline"
	"repro/internal/report"
	"repro/internal/standards"
	"repro/internal/synthweb"
	"repro/internal/webapi"
	"repro/internal/webidl"
)

// benchSites is the shared study's scale. The paper's 10,000 sites shrink to
// 400 so the full bench suite stays in CI budgets; the calibration scales
// targets proportionally, so every shape claim survives.
const benchSites = 400

var (
	benchOnce    sync.Once
	benchStudy   *core.Study
	benchResults *core.Results
	benchErr     error
)

func sharedStudy(b *testing.B) (*core.Study, *core.Results) {
	b.Helper()
	benchOnce.Do(func() {
		benchStudy, benchErr = core.NewStudy(core.Config{Sites: benchSites, Seed: 42, Shards: 2, ShardWorkers: 4})
		if benchErr != nil {
			return
		}
		benchResults, benchErr = benchStudy.RunSurvey()
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchStudy, benchResults
}

// survey crawls web with cfg on the pipeline engine's default geometry: one
// shard of four workers.
func survey(b *testing.B, web *synthweb.Web, bind *webapi.Bindings, cfg crawler.Config) *pipeline.Result {
	b.Helper()
	res, err := pipeline.New(web, bind, pipeline.Config{Crawl: cfg}).Run(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkFigure1 regenerates the browser-complexity time series.
func BenchmarkFigure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		report.Figure1(io.Discard)
	}
}

// BenchmarkTable1 regenerates the crawl-scale summary.
func BenchmarkTable1(b *testing.B) {
	_, results := sharedStudy(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		report.Table1(io.Discard, results.Stats)
	}
	b.ReportMetric(float64(results.Stats.DomainsMeasured), "domains-measured")
	b.ReportMetric(float64(results.Stats.Invocations), "invocations")
}

// BenchmarkFeaturePopularity regenerates the §5.3 headline bands.
func BenchmarkFeaturePopularity(b *testing.B) {
	study, results := sharedStudy(b)
	b.ResetTimer()
	var bands analysis.FeatureBands
	for i := 0; i < b.N; i++ {
		a := analysis.New(results.Log, study.Registry)
		bands = a.Bands(measure.CaseDefault)
	}
	b.ReportMetric(float64(bands.NeverUsed), "never-used(paper:689)")
	b.ReportMetric(float64(bands.UnderOnePct), "under-1pct(paper:416)")
}

// BenchmarkFigure3 regenerates the standard-popularity CDF.
func BenchmarkFigure3(b *testing.B) {
	_, results := sharedStudy(b)
	b.ResetTimer()
	var pts []analysis.CDFPoint
	for i := 0; i < b.N; i++ {
		pts = results.Analysis.StandardPopularityCDF()
		report.Figure3(io.Discard, results.Analysis)
	}
	b.ReportMetric(pts[0].Fraction*100, "never-used-std-pct(paper:~15)")
}

// BenchmarkFigure4 regenerates popularity-vs-block-rate.
func BenchmarkFigure4(b *testing.B) {
	_, results := sharedStudy(b)
	b.ResetTimer()
	var rates map[standards.Abbrev]analysis.BlockRate
	for i := 0; i < b.N; i++ {
		rates = results.Analysis.BlockRates(measure.CaseBlocking)
		report.Figure4(io.Discard, results.Analysis)
	}
	b.ReportMetric(rates["PT2"].Rate*100, "PT2-blockrate(paper:93.7)")
	b.ReportMetric(rates["DOM1"].Rate*100, "DOM1-blockrate(paper:1.8)")
}

// BenchmarkFigure5 regenerates site- vs visit-weighted popularity.
func BenchmarkFigure5(b *testing.B) {
	study, results := sharedStudy(b)
	b.ResetTimer()
	var pts []analysis.VisitWeighted
	for i := 0; i < b.N; i++ {
		pts = results.Analysis.VisitWeightedPopularity(study.Ranking())
		report.Figure5(io.Discard, pts)
	}
	var xs, ys []float64
	for _, p := range pts {
		if p.SiteFraction > 0 {
			xs = append(xs, p.SiteFraction)
			ys = append(ys, p.VisitFraction)
		}
	}
	b.ReportMetric(analysis.Pearson(xs, ys), "site-visit-corr(paper:~x=y)")
}

// BenchmarkFigure6 regenerates introduction-date vs popularity.
func BenchmarkFigure6(b *testing.B) {
	study, results := sharedStudy(b)
	b.ResetTimer()
	var pts []analysis.AgePoint
	for i := 0; i < b.N; i++ {
		pts = results.Analysis.AgeSeries(study.History)
		report.Figure6(io.Discard, pts)
	}
	b.ReportMetric(float64(len(pts)), "standards-dated")
}

// BenchmarkFigure7 regenerates ad-only vs tracker-only block rates.
func BenchmarkFigure7(b *testing.B) {
	_, results := sharedStudy(b)
	b.ResetTimer()
	var pts []analysis.AdVsTracker
	for i := 0; i < b.N; i++ {
		pts = results.Analysis.AdVsTrackerRates()
		report.Figure7(io.Discard, pts)
	}
	for _, p := range pts {
		if p.Standard == "WCR" {
			b.ReportMetric(p.TrackerRate*100, "WCR-tracker-rate")
			b.ReportMetric(p.AdRate*100, "WCR-ad-rate")
		}
	}
}

// BenchmarkTable2 regenerates the per-standard results table.
func BenchmarkTable2(b *testing.B) {
	study, results := sharedStudy(b)
	b.ResetTimer()
	var rows []analysis.Table2Row
	for i := 0; i < b.N; i++ {
		rows = results.Analysis.Table2(study.CVEs)
		report.Table2(io.Discard, rows)
	}
	b.ReportMetric(float64(len(rows)), "rows(paper:53)")
}

// BenchmarkTable3 regenerates the internal-validation round table.
func BenchmarkTable3(b *testing.B) {
	_, results := sharedStudy(b)
	b.ResetTimer()
	var perRound []float64
	for i := 0; i < b.N; i++ {
		perRound = results.Analysis.NewStandardsPerRound()
		report.Table3(io.Discard, perRound)
	}
	b.ReportMetric(perRound[1], "round2-new(paper:1.56)")
	b.ReportMetric(perRound[4], "round5-new(paper:0.00)")
}

// BenchmarkFigure8 regenerates the site-complexity PDF.
func BenchmarkFigure8(b *testing.B) {
	_, results := sharedStudy(b)
	b.ResetTimer()
	var comp []int
	for i := 0; i < b.N; i++ {
		comp = results.Analysis.Complexity()
		report.Figure8(io.Discard, comp)
	}
	var vals []float64
	for _, c := range comp {
		vals = append(vals, float64(c))
	}
	b.ReportMetric(analysis.Quantile(vals, 0.5), "median-standards(paper:14-32)")
	b.ReportMetric(analysis.Quantile(vals, 1), "max-standards(paper:41)")
}

// BenchmarkFigure9 regenerates the external-validation histogram.
func BenchmarkFigure9(b *testing.B) {
	study, results := sharedStudy(b)
	b.ResetTimer()
	var deltas []int
	for i := 0; i < b.N; i++ {
		var err error
		deltas, err = study.RunExternalValidation(results)
		if err != nil {
			b.Fatal(err)
		}
		report.Figure9(io.Discard, deltas)
	}
	zero := 0
	for _, d := range deltas {
		if d == 0 {
			zero++
		}
	}
	b.ReportMetric(float64(zero)/float64(len(deltas))*100, "zero-delta-pct(paper:83.7)")
}

// BenchmarkSurveySmall measures the full pipeline cost per site: corpus +
// web generation amortized away, crawling 25 sites in the default case.
func BenchmarkSurveySmall(b *testing.B) {
	reg, err := webidl.Generate(1)
	if err != nil {
		b.Fatal(err)
	}
	web, err := synthweb.Generate(reg, synthweb.Config{Sites: 25, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	bind := webapi.NewBindings(reg)
	cfg := crawler.DefaultConfig(5)
	cfg.Cases = []measure.Case{measure.CaseDefault}
	cfg.Rounds = 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		survey(b, web, bind, cfg)
	}
}

// BenchmarkAblationPathNovelty compares the paper's directory-novelty URL
// preference against random URL selection, reporting standards discovered
// in a single round.
func BenchmarkAblationPathNovelty(b *testing.B) {
	reg, err := webidl.Generate(1)
	if err != nil {
		b.Fatal(err)
	}
	web, err := synthweb.Generate(reg, synthweb.Config{Sites: 40, Seed: 6})
	if err != nil {
		b.Fatal(err)
	}
	bind := webapi.NewBindings(reg)
	for _, novelty := range []bool{true, false} {
		name := "novelty-on"
		if !novelty {
			name = "novelty-off"
		}
		b.Run(name, func(b *testing.B) {
			cfg := crawler.DefaultConfig(5)
			cfg.Cases = []measure.Case{measure.CaseDefault}
			cfg.Rounds = 1
			cfg.PathNoveltyPreference = novelty
			var discovered int
			for i := 0; i < b.N; i++ {
				a := analysis.New(survey(b, web, bind, cfg).Log, reg)
				discovered = a.UsedStandards(measure.CaseDefault)
			}
			b.ReportMetric(float64(discovered), "standards-discovered")
		})
	}
}

// BenchmarkAblationActionBudget sweeps the per-page monkey-testing budget
// (the paper fixes 30 s), reporting feature coverage per budget.
func BenchmarkAblationActionBudget(b *testing.B) {
	reg, err := webidl.Generate(1)
	if err != nil {
		b.Fatal(err)
	}
	web, err := synthweb.Generate(reg, synthweb.Config{Sites: 40, Seed: 8})
	if err != nil {
		b.Fatal(err)
	}
	bind := webapi.NewBindings(reg)
	for _, seconds := range []float64{10, 30, 60} {
		b.Run(byBudget(seconds), func(b *testing.B) {
			cfg := crawler.DefaultConfig(5)
			cfg.Cases = []measure.Case{measure.CaseDefault}
			cfg.Rounds = 1
			cfg.PageSeconds = seconds
			var used int
			for i := 0; i < b.N; i++ {
				fs := survey(b, web, bind, cfg).Log.FeatureSites(measure.CaseDefault)
				used = 0
				for _, n := range fs {
					if n > 0 {
						used++
					}
				}
			}
			b.ReportMetric(float64(used), "features-observed")
		})
	}
}

// BenchmarkAblationRounds sweeps visit counts 1..5 (the paper validates that
// 5 rounds saturate discovery, §6.1).
func BenchmarkAblationRounds(b *testing.B) {
	reg, err := webidl.Generate(1)
	if err != nil {
		b.Fatal(err)
	}
	web, err := synthweb.Generate(reg, synthweb.Config{Sites: 40, Seed: 10})
	if err != nil {
		b.Fatal(err)
	}
	bind := webapi.NewBindings(reg)
	for _, rounds := range []int{1, 3, 5} {
		b.Run(byRounds(rounds), func(b *testing.B) {
			cfg := crawler.DefaultConfig(5)
			cfg.Cases = []measure.Case{measure.CaseDefault}
			cfg.Rounds = rounds
			var used int
			for i := 0; i < b.N; i++ {
				a := analysis.New(survey(b, web, bind, cfg).Log, reg)
				used = a.UsedStandards(measure.CaseDefault)
			}
			b.ReportMetric(float64(used), "standards-discovered")
		})
	}
}

func byBudget(s float64) string {
	switch s {
	case 10:
		return "10s"
	case 30:
		return "30s-paper"
	default:
		return "60s"
	}
}

func byRounds(r int) string {
	switch r {
	case 1:
		return "1-round"
	case 3:
		return "3-rounds"
	default:
		return "5-rounds-paper"
	}
}

// BenchmarkAblationBranch sweeps the BFS fan-out (the paper fixes 3,
// giving 13 pages per visit), reporting pages visited and standards found.
func BenchmarkAblationBranch(b *testing.B) {
	reg, err := webidl.Generate(1)
	if err != nil {
		b.Fatal(err)
	}
	web, err := synthweb.Generate(reg, synthweb.Config{Sites: 40, Seed: 12})
	if err != nil {
		b.Fatal(err)
	}
	bind := webapi.NewBindings(reg)
	for _, branch := range []int{2, 3, 4} {
		name := map[int]string{2: "branch-2", 3: "branch-3-paper", 4: "branch-4"}[branch]
		b.Run(name, func(b *testing.B) {
			cfg := crawler.DefaultConfig(5)
			cfg.Cases = []measure.Case{measure.CaseDefault}
			cfg.Rounds = 1
			cfg.Branch = branch
			var pages int64
			var used int
			for i := 0; i < b.N; i++ {
				res := survey(b, web, bind, cfg)
				pages = res.Stats.PagesVisited
				used = analysis.New(res.Log, reg).UsedStandards(measure.CaseDefault)
			}
			b.ReportMetric(float64(pages), "pages")
			b.ReportMetric(float64(used), "standards-discovered")
		})
	}
}

// BenchmarkClosedWebCrawl measures the §7.3 credentialed crawl and reports
// how many additional standards the closed web surfaces.
func BenchmarkClosedWebCrawl(b *testing.B) {
	reg, err := webidl.Generate(1)
	if err != nil {
		b.Fatal(err)
	}
	web, err := synthweb.Generate(reg, synthweb.Config{Sites: 60, Seed: 14})
	if err != nil {
		b.Fatal(err)
	}
	bind := webapi.NewBindings(reg)
	cfg := crawler.DefaultConfig(5)
	cfg.Cases = []measure.Case{measure.CaseDefault}
	cfg.Rounds = 2
	cfg.WithCredentials = true
	var used int
	for i := 0; i < b.N; i++ {
		used = analysis.New(survey(b, web, bind, cfg).Log, reg).UsedStandards(measure.CaseDefault)
	}
	b.ReportMetric(float64(used), "standards-incl-closed-web")
}
