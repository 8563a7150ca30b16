package crawler_test

import (
	"context"
	"fmt"
	"maps"
	"math"
	"testing"

	"repro/internal/crawler"
	"repro/internal/logstore"
	"repro/internal/measure"
	"repro/internal/pipeline"
	"repro/internal/standards"
	"repro/internal/synthweb"
	"repro/internal/webapi"
	"repro/internal/webidl"
)

// Shared small survey for the package's tests: 120 sites, full methodology,
// run on the pipeline engine, which drives this package's Visitor.
var (
	sharedWeb   *synthweb.Web
	sharedLog   *measure.Log
	sharedStats *crawler.Stats
)

func runSurvey(t testing.TB) (*synthweb.Web, *measure.Log, *crawler.Stats) {
	t.Helper()
	if sharedLog != nil {
		return sharedWeb, sharedLog, sharedStats
	}
	reg, err := webidl.Generate(1)
	if err != nil {
		t.Fatal(err)
	}
	web, err := synthweb.Generate(reg, synthweb.Config{Sites: 120, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	log, stats := survey(t, web, pipeline.Config{Crawl: crawler.DefaultConfig(11)})
	sharedWeb, sharedLog, sharedStats = web, log, stats
	return web, log, stats
}

// survey runs one pipeline survey of web and returns the log its spill
// files hold, with its Table 1 stats.
func survey(t testing.TB, web *synthweb.Web, cfg pipeline.Config) (*measure.Log, *crawler.Stats) {
	t.Helper()
	cfg.SpillDir = t.TempDir()
	res, err := pipeline.New(web, webapi.NewBindings(web.Registry), cfg).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	log, err := logstore.ReadSpillFiles(res.Spills...)
	if err != nil {
		t.Fatal(err)
	}
	return log, res.Stats
}

func TestSurveyMeasuresMostDomains(t *testing.T) {
	web, _, stats := runSurvey(t)
	wantFailed := 0
	for _, s := range web.Sites {
		if s.Failure != synthweb.FailNone {
			wantFailed++
		}
	}
	if stats.DomainsFailed != wantFailed {
		t.Errorf("failed domains = %d, want %d", stats.DomainsFailed, wantFailed)
	}
	if stats.DomainsMeasured != len(web.Sites)-wantFailed {
		t.Errorf("measured domains = %d, want %d", stats.DomainsMeasured, len(web.Sites)-wantFailed)
	}
	if stats.Invocations == 0 || stats.PagesVisited == 0 {
		t.Error("no invocations or pages recorded")
	}
}

func TestThirteenPagesPerVisit(t *testing.T) {
	web, log, _ := runSurvey(t)
	// Pages per (site, case, round) = 1 + 3 + 9 = 13 when the site has
	// enough reachable URLs, which the generated layout guarantees.
	cl := log.Cases[measure.CaseDefault]
	if cl == nil {
		t.Fatal("default case missing")
	}
	measured := 0
	for _, s := range web.Sites {
		if s.Failure == synthweb.FailNone {
			measured++
		}
	}
	budget := int64(measured) * int64(len(cl.Rounds)) * 13
	if cl.PagesVisited > budget {
		t.Errorf("default-case pages = %d exceeds the 13-page budget %d", cl.PagesVisited, budget)
	}
	// The paper's 13 pages is the design budget; a visit falls short only
	// when monkey testing surfaced too few distinct URLs. Require at
	// least 96% budget utilization.
	if float64(cl.PagesVisited) < 0.96*float64(budget) {
		t.Errorf("default-case pages = %d, want >= 96%% of budget %d", cl.PagesVisited, budget)
	}
}

// stdSites computes per-standard site counts from the log.
func stdSites(t testing.TB, web *synthweb.Web, log *measure.Log, cs measure.Case) map[standards.Abbrev]int {
	t.Helper()
	out := make(map[standards.Abbrev]int)
	for site := range web.Sites {
		u := log.SiteUnion(cs, site)
		if u == nil {
			continue
		}
		seen := map[standards.Abbrev]bool{}
		for _, f := range web.Registry.Features {
			if u.Get(f.ID) && !seen[f.Standard] {
				seen[f.Standard] = true
				out[f.Standard]++
			}
		}
	}
	return out
}

func TestMeasuredStandardPopularityMatchesGroundTruth(t *testing.T) {
	web, log, _ := runSurvey(t)
	got := stdSites(t, web, log, measure.CaseDefault)
	for _, std := range standards.Catalog() {
		want := web.GroundTruthSites(std.Abbrev)
		g := got[std.Abbrev]
		// Allow a small shortfall from gated placements the monkey
		// missed in all 5 rounds.
		tolerance := 2 + want/12
		if g > want || want-g > tolerance {
			t.Errorf("standard %s: measured on %d sites, ground truth %d (tolerance %d)",
				std.Abbrev, g, want, tolerance)
		}
	}
}

func TestBlockingReducesUsage(t *testing.T) {
	web, log, _ := runSurvey(t)
	def := stdSites(t, web, log, measure.CaseDefault)
	blk := stdSites(t, web, log, measure.CaseBlocking)
	for _, std := range standards.Catalog() {
		if blk[std.Abbrev] > def[std.Abbrev] {
			t.Errorf("standard %s: blocking increased usage %d -> %d",
				std.Abbrev, def[std.Abbrev], blk[std.Abbrev])
		}
	}
	// Heavily blocked standards must show a strong reduction.
	for _, abbrev := range []standards.Abbrev{"PT2", "BE", "SVG"} {
		std := standards.MustByAbbrev(abbrev)
		if def[abbrev] < 5 {
			continue
		}
		gotRate := 1 - float64(blk[abbrev])/float64(def[abbrev])
		if math.Abs(gotRate-std.BlockRate) > 0.2 {
			t.Errorf("standard %s: measured block rate %.2f, paper %.2f", abbrev, gotRate, std.BlockRate)
		}
	}
	// Core DOM standards stay essentially unblocked.
	for _, abbrev := range []standards.Abbrev{"DOM1", "DOM"} {
		if def[abbrev] == 0 {
			continue
		}
		gotRate := 1 - float64(blk[abbrev])/float64(def[abbrev])
		if gotRate > 0.1 {
			t.Errorf("standard %s: block rate %.2f, want near zero", abbrev, gotRate)
		}
	}
}

func TestAdVsTrackerBlocking(t *testing.T) {
	web, log, _ := runSurvey(t)
	def := stdSites(t, web, log, measure.CaseDefault)
	ad := stdSites(t, web, log, measure.CaseAdBlock)
	gh := stdSites(t, web, log, measure.CaseGhostery)
	// Tracker-affine standards (e.g. WCR) must be blocked more by
	// Ghostery than by AdBlock Plus; the single-extension cases must
	// never block more than the combined case unblocks.
	for _, abbrev := range []standards.Abbrev{"WCR", "PT2", "BA"} {
		if def[abbrev] < 10 {
			continue
		}
		adRate := 1 - float64(ad[abbrev])/float64(def[abbrev])
		ghRate := 1 - float64(gh[abbrev])/float64(def[abbrev])
		if ghRate <= adRate {
			t.Errorf("standard %s: tracker-affine but ghostery rate %.2f <= adblock rate %.2f",
				abbrev, ghRate, adRate)
		}
	}
	// UIE is ad-affine: AdBlock blocks it harder.
	if def["UIE"] >= 10 {
		adRate := 1 - float64(ad["UIE"])/float64(def["UIE"])
		ghRate := 1 - float64(gh["UIE"])/float64(def["UIE"])
		if adRate <= ghRate {
			t.Errorf("UIE: ad-affine but adblock rate %.2f <= ghostery rate %.2f", adRate, ghRate)
		}
	}
}

func TestRoundsDiscoverIncrementally(t *testing.T) {
	web, log, _ := runSurvey(t)
	cl := log.Cases[measure.CaseDefault]
	// Compute average newly-seen standards per round (Table 3): round 2
	// must discover more than round 5, and by round 5 discovery should
	// be near zero.
	perRound := make([]float64, len(cl.Rounds))
	measured := 0
	for site := range web.Sites {
		if !log.Measured[site] {
			continue
		}
		measured++
		seen := map[standards.Abbrev]bool{}
		for round, rl := range cl.Rounds {
			sf := rl.SiteFeatures[site]
			if sf == nil {
				continue
			}
			newStd := 0
			for _, f := range web.Registry.Features {
				if sf.Get(f.ID) && !seen[f.Standard] {
					seen[f.Standard] = true
					newStd++
				}
			}
			if round > 0 {
				perRound[round] += float64(newStd)
			}
		}
	}
	for r := 1; r < len(perRound); r++ {
		perRound[r] /= float64(measured)
	}
	if perRound[1] <= perRound[4] {
		t.Errorf("round discovery not decaying: %v", perRound)
	}
	if perRound[4] > 0.3 {
		t.Errorf("round-5 discovery %.2f, want near zero (paper: 0.00)", perRound[4])
	}
	if perRound[1] < 0.2 {
		t.Errorf("round-2 discovery %.2f suspiciously low (paper: 1.56)", perRound[1])
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	web, log, _ := runSurvey(t)
	cfg := crawler.DefaultConfig(11)
	cfg.Cases = []measure.Case{measure.CaseDefault}
	log2, _ := survey(t, web, pipeline.Config{Shards: 2, WorkersPerShard: 1, Crawl: cfg})
	for site := range web.Sites {
		a := log.SiteUnion(measure.CaseDefault, site)
		b := log2.SiteUnion(measure.CaseDefault, site)
		if (a == nil) != (b == nil) {
			t.Fatalf("site %d measured in one run only", site)
		}
		if a == nil {
			continue
		}
		if a.Count() != b.Count() {
			t.Fatalf("site %d: feature sets differ across identical runs (%d vs %d)",
				site, a.Count(), b.Count())
		}
	}
}

func TestHumanVisitObservesFeatures(t *testing.T) {
	web, _, _ := runSurvey(t)
	c := crawler.New(web, webapi.NewBindings(web.Registry), crawler.DefaultConfig(11))
	var site *synthweb.Site
	for _, s := range web.Sites {
		if s.Failure == synthweb.FailNone {
			site = s
			break
		}
	}
	counts, err := c.HumanVisit(site, 99)
	if err != nil {
		t.Fatal(err)
	}
	if len(counts) == 0 {
		t.Fatal("human visit observed nothing")
	}
}

func TestUnresponsiveSiteFails(t *testing.T) {
	web, log, _ := runSurvey(t)
	for _, s := range web.Sites {
		if s.Failure == synthweb.FailNone {
			continue
		}
		if log.Measured[s.Index] {
			t.Errorf("failing site %s (%v) was marked measured", s.Domain, s.Failure)
		}
		if u := log.SiteUnion(measure.CaseDefault, s.Index); u != nil && u.Any() {
			// A syntax-error site may have produced partial
			// observations before the error was detected; the
			// Measured flag must still exclude it.
			if log.Measured[s.Index] {
				t.Errorf("failing site %s contributed measurements", s.Domain)
			}
		}
	}
}

func TestPathNoveltyAblation(t *testing.T) {
	web, _, _ := runSurvey(t)
	cfg := crawler.DefaultConfig(11)
	cfg.Cases = []measure.Case{measure.CaseDefault}
	cfg.Rounds = 1
	cfg.PathNoveltyPreference = false
	if _, stats := survey(t, web, pipeline.Config{Crawl: cfg}); stats.PagesVisited == 0 {
		t.Fatal("ablated crawl visited nothing")
	}
}

func TestCredentialedCrawlSeesClosedWeb(t *testing.T) {
	web, _, _ := runSurvey(t)
	var members []*synthweb.Site
	for _, s := range web.Sites {
		if web.HasMembersArea(s) {
			members = append(members, s)
		}
		if len(members) == 4 {
			break
		}
	}
	if len(members) == 0 {
		t.Skip("no member site in sample")
	}

	closedFeatures := func(counts map[int]int64) int {
		n := 0
		pool := map[standards.Abbrev]bool{}
		for _, std := range synthweb.ClosedWebStandards() {
			pool[std] = true
		}
		for id := range counts {
			if pool[web.Registry.Features[id].Standard] {
				n++
			}
		}
		return n
	}

	run := func(withCreds bool) int {
		cfg := crawler.DefaultConfig(77)
		cfg.Cases = []measure.Case{measure.CaseDefault}
		cfg.Rounds = 5
		cfg.WithCredentials = withCreds
		w, err := crawler.New(web, webapi.NewBindings(web.Registry), cfg).NewVisitor(measure.CaseDefault)
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		for _, member := range members {
			for round := 0; round < cfg.Rounds; round++ {
				counts, _, err := w.CrawlOnce(member, crawler.VisitSeed(cfg.Seed, member.Index, measure.CaseDefault, round))
				if err != nil {
					t.Fatal(err)
				}
				total += closedFeatures(counts)
			}
		}
		return total
	}

	open := run(false)
	if open != 0 {
		t.Errorf("open-web crawl observed %d closed-web features; the login wall leaks", open)
	}
	closed := run(true)
	if closed == 0 {
		t.Error("credentialed crawl observed no closed-web features (paper §7.3 mode)")
	}
}

// TestCrawlOnceIndependentOfHistory crawls sites in turn, two rounds each,
// on one visitor per case, and each visit again on a fresh crawler's
// visitor. Counts, pages and errors must match: nothing an earlier visit
// leaves in the visitor (its reseeded generator, its recycled pages and
// their DOM slabs, its scratch maps) may reach a later one.
func TestCrawlOnceIndependentOfHistory(t *testing.T) {
	web, _, _ := runSurvey(t)
	bind := webapi.NewBindings(web.Registry)
	cfg := crawler.DefaultConfig(11)
	// The first twelve sites, then up to four that fail, interleaved so
	// healthy visits follow failed ones.
	var sites, failing []*synthweb.Site
	for _, s := range web.Sites {
		if s.Failure != synthweb.FailNone && len(failing) < 4 {
			failing = append(failing, s)
		}
	}
	if len(failing) == 0 {
		t.Fatal("the survey's web has no failing site")
	}
	for i, s := range web.Sites[:12] {
		sites = append(sites, s)
		if i%3 == 0 && len(failing) > 0 {
			sites, failing = append(sites, failing[0]), failing[1:]
		}
	}
	for _, cs := range []measure.Case{measure.CaseDefault, measure.CaseBlocking} {
		used, err := crawler.New(web, bind, cfg).NewVisitor(cs)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range sites {
			for round := 0; round < 2; round++ {
				seed := crawler.VisitSeed(cfg.Seed, s.Index, cs, round)
				counts, pages, err := used.CrawlOnce(s, seed)
				counts = maps.Clone(counts)
				fresh, ferr := crawler.New(web, bind, cfg).NewVisitor(cs)
				if ferr != nil {
					t.Fatal(ferr)
				}
				wantCounts, wantPages, wantErr := fresh.CrawlOnce(s, seed)
				if fmt.Sprint(err) != fmt.Sprint(wantErr) {
					t.Fatalf("%s %s round %d: error %v, fresh visitor %v", cs, s.Domain, round, err, wantErr)
				}
				if pages != wantPages || !maps.Equal(counts, wantCounts) {
					t.Errorf("%s %s round %d: %d pages and %d features, fresh visitor %d and %d",
						cs, s.Domain, round, pages, len(counts), wantPages, len(wantCounts))
				}
			}
		}
	}
}
