package analysis

import (
	"context"
	"math"
	"reflect"
	"testing"

	"repro/internal/crawler"
	"repro/internal/cve"
	"repro/internal/firefoxhist"
	"repro/internal/logstore"
	"repro/internal/measure"
	"repro/internal/pipeline"
	"repro/internal/standards"
	"repro/internal/synthweb"
	"repro/internal/webapi"
	"repro/internal/webidl"
)

// The analysis tests run one shared small survey.
var (
	sharedWeb  *synthweb.Web
	sharedLog  *measure.Log
	sharedAna  *Analysis
	sharedHist *firefoxhist.History
)

func surveyed(t testing.TB) (*synthweb.Web, *Analysis) {
	t.Helper()
	if sharedAna != nil {
		return sharedWeb, sharedAna
	}
	reg, err := webidl.Generate(1)
	if err != nil {
		t.Fatal(err)
	}
	web, err := synthweb.Generate(reg, synthweb.Config{Sites: 150, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	res, err := pipeline.New(web, webapi.NewBindings(reg), pipeline.Config{SpillDir: t.TempDir(), Crawl: crawler.DefaultConfig(17)}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	log, err := logstore.ReadSpillFiles(res.Spills...)
	if err != nil {
		t.Fatal(err)
	}
	sharedWeb = web
	sharedLog = log
	sharedAna = New(log, reg)
	sharedHist = firefoxhist.New(reg)
	return web, sharedAna
}

func TestStandardSitesAgainstGroundTruth(t *testing.T) {
	web, a := surveyed(t)
	got := a.StandardSites(measure.CaseDefault)
	for _, std := range standards.Catalog() {
		want := web.GroundTruthSites(std.Abbrev)
		tolerance := 2 + want/12
		if got[std.Abbrev] > want || want-got[std.Abbrev] > tolerance {
			t.Errorf("standard %s: %d sites, ground truth %d", std.Abbrev, got[std.Abbrev], want)
		}
	}
}

func TestBandsShape(t *testing.T) {
	_, a := surveyed(t)
	def := a.Bands(measure.CaseDefault)
	if def.Total != 1392 {
		t.Fatalf("corpus size = %d", def.Total)
	}
	// The profile pins never-used to 689; the measurement can only lose
	// a few gated features on top.
	if def.NeverUsed < 689 || def.NeverUsed > 740 {
		t.Errorf("never-used = %d, want ~689", def.NeverUsed)
	}
	// Under blocking, more features vanish and the under-1% share grows
	// to ~83% of the corpus (paper §5.3).
	blk := a.Bands(measure.CaseBlocking)
	if blk.NeverUsed <= def.NeverUsed {
		t.Errorf("blocking never-used %d <= default %d", blk.NeverUsed, def.NeverUsed)
	}
	defShare := float64(def.NeverUsed+def.UnderOnePct) / float64(def.Total)
	blkShare := float64(blk.NeverUsed+blk.UnderOnePct) / float64(blk.Total)
	if blkShare <= defShare {
		t.Errorf("blocking <1%% share %.2f <= default %.2f", blkShare, defShare)
	}
	if defShare < 0.70 || defShare > 0.90 {
		t.Errorf("default <1%% share %.2f, paper ~0.79", defShare)
	}
	if blkShare < 0.75 || blkShare > 0.95 {
		t.Errorf("blocking <1%% share %.2f, paper ~0.83", blkShare)
	}
}

func TestBlockRatesMatchPaperShape(t *testing.T) {
	_, a := surveyed(t)
	rates := a.BlockRates(measure.CaseBlocking)
	for _, std := range standards.Catalog() {
		br := rates[std.Abbrev]
		if br.DefaultSites < 15 {
			continue
		}
		if math.Abs(br.Rate-std.BlockRate) > 0.18 {
			t.Errorf("standard %s: block rate %.2f, paper %.2f (on %d sites)",
				std.Abbrev, br.Rate, std.BlockRate, br.DefaultSites)
		}
	}
}

func TestComplexityDistribution(t *testing.T) {
	_, a := surveyed(t)
	comp := a.Complexity()
	if len(comp) == 0 {
		t.Fatal("no complexity data")
	}
	var vals []float64
	for _, c := range comp {
		vals = append(vals, float64(c))
	}
	// Paper §5.9: most sites use 14-32 standards, none more than 41.
	med := Quantile(vals, 0.5)
	if med < 10 || med > 36 {
		t.Errorf("median complexity %.0f, paper range 14-32", med)
	}
	if max := Quantile(vals, 1); max > 55 {
		t.Errorf("max complexity %.0f, paper max 41", max)
	}
}

func TestStandardPopularityCDF(t *testing.T) {
	_, a := surveyed(t)
	pts := a.StandardPopularityCDF()
	if len(pts) == 0 {
		t.Fatal("empty CDF")
	}
	// Paper §5.2: some standards are never used (the CDF starts above
	// zero at x=0), and the most popular standards reach most sites.
	if pts[0].X != 0 {
		t.Errorf("CDF does not include never-used standards: first x=%v", pts[0].X)
	}
	if pts[0].Fraction < 0.1 {
		t.Errorf("never-used fraction %.2f too small", pts[0].Fraction)
	}
	if pts[len(pts)-1].Fraction != 1 {
		t.Error("CDF does not reach 1")
	}
}

func TestVisitWeightedPopularity(t *testing.T) {
	web, a := surveyed(t)
	pts := a.VisitWeightedPopularity(web.Ranking)
	if len(pts) != standards.Count() {
		t.Fatalf("points = %d, want %d", len(pts), standards.Count())
	}
	// Site and visit fractions must correlate strongly (the paper's
	// clustering around x=y).
	var xs, ys []float64
	for _, p := range pts {
		if p.SiteFraction > 0 {
			xs = append(xs, p.SiteFraction)
			ys = append(ys, p.VisitFraction)
		}
	}
	if r := Pearson(xs, ys); r < 0.9 {
		t.Errorf("site/visit correlation %.2f, want > 0.9 (paper: clustered around x=y)", r)
	}
}

func TestAgeSeries(t *testing.T) {
	_, a := surveyed(t)
	pts := a.AgeSeries(sharedHist)
	if len(pts) != standards.Count() {
		t.Fatalf("age points = %d, want %d", len(pts), standards.Count())
	}
	byStd := map[standards.Abbrev]AgePoint{}
	for _, p := range pts {
		byStd[p.Standard] = p
	}
	// AJAX: old and popular. SLC: newer but popular. Both paper-called.
	ajax, slc := byStd["AJAX"], byStd["SLC"]
	if ajax.Introduced.Date.Year() != 2004 {
		t.Errorf("AJAX introduced %v, want 2004", ajax.Introduced)
	}
	if slc.Introduced.Date.Year() != 2013 {
		t.Errorf("SLC introduced %v, want 2013", slc.Introduced)
	}
	if ajax.Sites == 0 || slc.Sites == 0 {
		t.Error("AJAX/SLC unexpectedly unpopular")
	}
	// The series is sorted by date.
	for i := 1; i < len(pts); i++ {
		if pts[i].Introduced.Date.Before(pts[i-1].Introduced.Date) {
			t.Fatal("age series not sorted")
		}
	}
}

func TestAdVsTrackerRates(t *testing.T) {
	_, a := surveyed(t)
	pts := a.AdVsTrackerRates()
	if len(pts) == 0 {
		t.Fatal("no ad-vs-tracker points")
	}
	byStd := map[standards.Abbrev]AdVsTracker{}
	for _, p := range pts {
		byStd[p.Standard] = p
	}
	// Paper §5.7.2: WCR is blocked more by tracking blockers; UIE more
	// by ad blockers.
	if p, ok := byStd["WCR"]; ok && p.Sites > 20 && p.TrackerRate <= p.AdRate {
		t.Errorf("WCR tracker rate %.2f <= ad rate %.2f", p.TrackerRate, p.AdRate)
	}
	if p, ok := byStd["UIE"]; ok && p.Sites > 10 && p.AdRate <= p.TrackerRate {
		t.Errorf("UIE ad rate %.2f <= tracker rate %.2f", p.AdRate, p.TrackerRate)
	}
}

func TestTable2(t *testing.T) {
	_, a := surveyed(t)
	db := cve.Generate(1)
	rows := a.Table2(db)
	if len(rows) < 40 {
		t.Fatalf("table 2 has %d rows, want ~53", len(rows))
	}
	// Rows are sorted by CVEs then sites; the top row must be H-C (15
	// CVEs).
	if rows[0].Standard.Abbrev != "H-C" || rows[0].CVEs != 15 {
		t.Errorf("top row = %s with %d CVEs, want H-C with 15", rows[0].Standard.Abbrev, rows[0].CVEs)
	}
	for _, r := range rows {
		if r.Sites == 0 && r.CVEs == 0 {
			t.Errorf("row %s has neither sites nor CVEs", r.Standard.Abbrev)
		}
	}
}

func TestNewStandardsPerRound(t *testing.T) {
	_, a := surveyed(t)
	perRound := a.NewStandardsPerRound()
	if len(perRound) != 5 {
		t.Fatalf("rounds = %d", len(perRound))
	}
	if perRound[0] < 5 {
		t.Errorf("round-1 discovery %.2f too low (most standards load on the home page)", perRound[0])
	}
	// Table 3 shape: monotone-ish decay to near zero.
	if perRound[1] <= perRound[4] {
		t.Errorf("no decay: %v", perRound)
	}
	if perRound[4] > 0.25 {
		t.Errorf("round-5 discovery %.2f, paper 0.00", perRound[4])
	}
}

func TestHumanDelta(t *testing.T) {
	web, a := surveyed(t)
	// A human observing exactly what the monkey saw has delta zero.
	for site := range web.Sites {
		u := sharedLog.SiteUnion(measure.CaseDefault, site)
		if u == nil {
			continue
		}
		counts := map[int]int64{}
		for id := 0; id < sharedLog.NumFeatures; id++ {
			if u.Get(id) {
				counts[id] = 1
			}
		}
		if d := a.HumanDelta(site, counts); d != 0 {
			t.Fatalf("identical observation yields delta %d", d)
		}
		// A human seeing one feature of a never-observed standard
		// yields delta 1.
		for _, f := range a.Reg.Features {
			if !u.Get(f.ID) && a.StandardSites(measure.CaseDefault)[f.Standard] == 0 {
				counts[f.ID] = 1
				if d := a.HumanDelta(site, counts); d != 1 {
					t.Fatalf("novel standard yields delta %d", d)
				}
				return
			}
		}
		return
	}
}

func TestUsedStandards(t *testing.T) {
	_, a := surveyed(t)
	def := a.UsedStandards(measure.CaseDefault)
	blk := a.UsedStandards(measure.CaseBlocking)
	// Paper: 64 standards used by default (75 - 11 never used); under
	// blocking, additional standards disappear entirely.
	if def < 55 || def > 64 {
		t.Errorf("default used standards = %d, want ~64", def)
	}
	if blk > def {
		t.Errorf("blocking used %d standards > default %d", blk, def)
	}
}

// TestNewAcceptsAnyLog folds a log the survey itself never writes — a case
// outside measure.AllCases, no default case, fewer features than the
// registry — and answers it like any other.
func TestNewAcceptsAnyLog(t *testing.T) {
	_, shared := surveyed(t)
	reg := shared.Reg
	log := measure.NewLog(10, []string{"a.example", "b.example"})
	sf := measure.NewBitset(10)
	sf.Set(0)
	sf.Set(9)
	log.EnsureRound("custom", 1).SiteFeatures[1] = sf
	log.Measured[1] = true

	a := New(log, reg)
	if got := len(a.FeatureSites("custom")); got != 10 {
		t.Errorf("FeatureSites covers %d features, want the log's 10", got)
	}
	want := map[standards.Abbrev]int{reg.Features[0].Standard: 1, reg.Features[9].Standard: 1}
	if got := a.StandardSites("custom"); !reflect.DeepEqual(got, want) {
		t.Errorf("StandardSites(custom) = %v, want %v", got, want)
	}
	if got := a.Agg.MeasuredCount(); got != 1 {
		t.Errorf("MeasuredCount = %d, want 1", got)
	}
	if got := a.NewStandardsPerRound(); got != nil {
		t.Errorf("NewStandardsPerRound = %v without a default case, want nil", got)
	}
	if got := len(a.AgeSeries(sharedHist)); got != standards.Count() {
		t.Errorf("AgeSeries has %d points, want one per standard (%d)", got, standards.Count())
	}
}
