package stats

import (
	"math/rand"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"repro/internal/logstore"
	"repro/internal/measure"
	"repro/internal/standards"
)

const (
	tNumFeatures = 256
	tNumSites    = 40
	tRounds      = 3
)

func tStandards() []standards.Abbrev {
	catalog := standards.Catalog()
	out := make([]standards.Abbrev, tNumFeatures)
	for i := range out {
		out[i] = catalog[i%len(catalog)].Abbrev
	}
	return out
}

func tConfig() Config {
	return Config{
		NumFeatures: tNumFeatures,
		NumSites:    tNumSites,
		Standards:   tStandards(),
		Cases:       []measure.Case{measure.CaseDefault, measure.CaseBlocking},
		Stripes:     4,
	}
}

// tSurvey synthesizes a deterministic survey: per site, per case, per
// round, a sparse random bitset; some sites fail mid-case, some cases are
// skipped entirely. Events are returned per site, in visit order.
type tSiteEvents struct {
	site   int
	visits []Visit
	fails  []int
}

func tSurvey(seed int64) []tSiteEvents {
	rng := rand.New(rand.NewSource(seed))
	cases := []measure.Case{measure.CaseDefault, measure.CaseBlocking}
	out := make([]tSiteEvents, tNumSites)
	for site := 0; site < tNumSites; site++ {
		ev := tSiteEvents{site: site}
		for _, cs := range cases {
			if rng.Intn(10) == 0 {
				continue // case never reached the site
			}
			for round := 0; round < tRounds; round++ {
				if rng.Intn(25) == 0 {
					ev.fails = append(ev.fails, site)
					break // failed visit skips the case's remaining rounds
				}
				features := measure.NewBitset(tNumFeatures)
				for n := rng.Intn(12); n >= 0; n-- {
					features.Set(rng.Intn(tNumFeatures))
				}
				ev.visits = append(ev.visits, Visit{
					Case:        cs,
					Round:       round,
					Site:        site,
					Features:    features,
					Invocations: int64(rng.Intn(100)),
					Pages:       1 + rng.Intn(13),
				})
			}
		}
		out[site] = ev
	}
	return out
}

func feed(t *testing.T, agg *Aggregate, sites []tSiteEvents) {
	t.Helper()
	for _, ev := range sites {
		for _, v := range ev.visits {
			if err := agg.AddVisit(v); err != nil {
				t.Fatal(err)
			}
		}
		for _, site := range ev.fails {
			if err := agg.AddFailure(site); err != nil {
				t.Fatal(err)
			}
		}
		if err := agg.EndSite(ev.site); err != nil {
			t.Fatal(err)
		}
	}
}

// snapshot captures every query result for equality comparison.
type snapshot struct {
	FeatureSitesDefault  []int
	FeatureSitesBlocking []int
	StdSitesDefault      map[standards.Abbrev]int
	StdSitesBlocking     map[standards.Abbrev]int
	BlockedBlocking      map[standards.Abbrev]int
	BlockedUntracked     map[standards.Abbrev]int
	Complexity           []int
	NSP                  []float64
	Measured             int
	Invocations          int64
	Pages                int64
	StandardNames        []standards.Abbrev
	SiteStandards        []measure.Bitset // nil for a site the default case never observed
}

// TestAggregateMatchesColdScan feeds a synthetic survey into an aggregate
// and into a measure.Log, then checks the incrementally maintained numbers
// against the cold scans of the log.
func TestAggregateMatchesColdScan(t *testing.T) {
	sites := tSurvey(42)
	agg, err := New(tConfig())
	if err != nil {
		t.Fatal(err)
	}
	feed(t, agg, sites)

	log := measure.NewLog(tNumFeatures, make([]string, tNumSites))
	failed := make([]bool, tNumSites)
	for _, ev := range sites {
		for _, v := range ev.visits {
			rl := log.EnsureRound(v.Case, v.Round)
			rl.SiteFeatures[v.Site] = v.Features
			log.Cases[v.Case].Invocations += v.Invocations
			log.Cases[v.Case].PagesVisited += int64(v.Pages)
			log.Measured[v.Site] = true
		}
		for _, site := range ev.fails {
			failed[site] = true
		}
	}
	for site, f := range failed {
		if f {
			log.Measured[site] = false
		}
	}

	if got, want := agg.FeatureSites(measure.CaseDefault), log.FeatureSites(measure.CaseDefault); !reflect.DeepEqual(got, want) {
		t.Error("default feature-site counts diverge from the cold scan")
	}
	if got, want := agg.FeatureSites(measure.CaseBlocking), log.FeatureSites(measure.CaseBlocking); !reflect.DeepEqual(got, want) {
		t.Error("blocking feature-site counts diverge from the cold scan")
	}
	if got, want := agg.MeasuredCount(), log.MeasuredCount(); got != want {
		t.Errorf("MeasuredCount = %d, cold scan %d", got, want)
	}
	inv, pages := agg.Totals()
	var wantInv, wantPages int64
	for _, cl := range log.Cases {
		wantInv += cl.Invocations
		wantPages += cl.PagesVisited
	}
	if inv != wantInv || pages != wantPages {
		t.Errorf("Totals = (%d, %d), cold scan (%d, %d)", inv, pages, wantInv, wantPages)
	}

	// Standard-level numbers against a scan over per-site unions.
	stdOf := tStandards()
	siteSet := func(c measure.Case, site int) map[standards.Abbrev]bool {
		u := log.SiteUnion(c, site)
		if u == nil {
			return nil
		}
		set := make(map[standards.Abbrev]bool)
		u.ForEach(tNumFeatures, func(id int) { set[stdOf[id]] = true })
		return set
	}
	wantStd := make(map[standards.Abbrev]int)
	wantBlocked := make(map[standards.Abbrev]int)
	for site := 0; site < tNumSites; site++ {
		def := siteSet(measure.CaseDefault, site)
		blk := siteSet(measure.CaseBlocking, site)
		for std := range def {
			wantStd[std]++
			if blk == nil || !blk[std] {
				wantBlocked[std]++
			}
		}
	}
	if got := agg.StandardSites(measure.CaseDefault); !reflect.DeepEqual(got, wantStd) {
		t.Errorf("StandardSites(default) = %v, want %v", got, wantStd)
	}
	if got := agg.BlockedSites(measure.CaseBlocking); !reflect.DeepEqual(got, wantBlocked) {
		t.Errorf("BlockedSites(blocking) = %v, want %v", got, wantBlocked)
	}
	// An untracked case blocks everything, matching a log it never reached.
	if got := agg.BlockedSites(measure.CaseGhostery); !reflect.DeepEqual(got, wantStd) {
		t.Errorf("BlockedSites(untracked) = %v, want default counts %v", got, wantStd)
	}
}

// TestAggregateMergeEqualsSingle splits the survey's sites across two
// aggregates (the shard layout) and requires the merge to equal one
// aggregate that saw everything.
func TestAggregateMergeEqualsSingle(t *testing.T) {
	sites := tSurvey(7)
	whole, err := New(tConfig())
	if err != nil {
		t.Fatal(err)
	}
	feed(t, whole, sites)

	cfg := tConfig()
	cfg.Stripes = 2 // different stripe count must not matter
	shard0, err := New(tConfig())
	if err != nil {
		t.Fatal(err)
	}
	shard1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var even, odd []tSiteEvents
	for _, ev := range sites {
		if ev.site%2 == 0 {
			even = append(even, ev)
		} else {
			odd = append(odd, ev)
		}
	}
	feed(t, shard0, even)
	feed(t, shard1, odd)
	if err := shard0.Merge(shard1); err != nil {
		t.Fatal(err)
	}
	if got, want := sourceSnap(shard0), sourceSnap(whole); !reflect.DeepEqual(got, want) {
		t.Errorf("merged shards diverge from the single aggregate:\n got %+v\nwant %+v", got, want)
	}
}

// TestFromSpillsMatchesLive writes the survey through a spill Writer (with
// and without site-end markers) and requires FromSpills to reproduce the
// live aggregate exactly.
func TestFromSpillsMatchesLive(t *testing.T) {
	sites := tSurvey(99)
	live, err := New(tConfig())
	if err != nil {
		t.Fatal(err)
	}
	feed(t, live, sites)
	want := sourceSnap(live)

	for _, markers := range []bool{true, false} {
		name := "with-markers"
		if !markers {
			name = "without-markers"
		}
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "test.spill")
			w, err := logstore.Create(path, tNumFeatures, make([]string, tNumSites))
			if err != nil {
				t.Fatal(err)
			}
			for _, ev := range sites {
				for _, v := range ev.visits {
					if err := w.Append(logstore.Observation{
						Case: v.Case, Round: v.Round, Site: v.Site,
						Features: v.Features, Invocations: v.Invocations, Pages: v.Pages,
					}); err != nil {
						t.Fatal(err)
					}
				}
				for _, site := range ev.fails {
					if err := w.Fail(site); err != nil {
						t.Fatal(err)
					}
				}
				if markers {
					if err := w.EndSite(ev.site); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			agg, err := FromSpills(tStandards(), tConfig().Cases, path)
			if err != nil {
				t.Fatal(err)
			}
			if got := sourceSnap(agg); !reflect.DeepEqual(got, want) {
				t.Errorf("FromSpills diverges from the live aggregate:\n got %+v\nwant %+v", got, want)
			}
			if n := agg.OpenSites(); n != 0 {
				t.Errorf("FromSpills left %d open sites", n)
			}
		})
	}
}

func TestAggregateValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("New accepted a zero config")
	}
	cfg := tConfig()
	cfg.Standards = cfg.Standards[:10]
	if _, err := New(cfg); err == nil {
		t.Error("New accepted a short standards mapping")
	}
	cfg = tConfig()
	cfg.Cases = []measure.Case{measure.CaseDefault, measure.CaseDefault}
	if _, err := New(cfg); err == nil {
		t.Error("New accepted duplicate cases")
	}

	agg, err := New(tConfig())
	if err != nil {
		t.Fatal(err)
	}
	bits := measure.NewBitset(tNumFeatures)
	if err := agg.AddVisit(Visit{Case: "nope", Site: 0, Features: bits}); err == nil {
		t.Error("AddVisit accepted an untracked case")
	}
	if err := agg.AddVisit(Visit{Case: measure.CaseDefault, Site: tNumSites, Features: bits}); err == nil {
		t.Error("AddVisit accepted an out-of-range site")
	}
	if err := agg.AddVisit(Visit{Case: measure.CaseDefault, Site: 0, Round: -1, Features: bits}); err == nil {
		t.Error("AddVisit accepted a negative round")
	}
	if err := agg.AddFailure(-1); err == nil {
		t.Error("AddFailure accepted a negative site")
	}
}

func TestMergeRejectsMismatches(t *testing.T) {
	a, err := New(tConfig())
	if err != nil {
		t.Fatal(err)
	}

	// Open sites must be folded before merging.
	b, err := New(tConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := b.AddVisit(Visit{Case: measure.CaseDefault, Site: 3, Features: measure.NewBitset(tNumFeatures)}); err != nil {
		t.Fatal(err)
	}
	if err := a.Merge(b); err == nil {
		t.Error("Merge accepted an aggregate with open sites")
	}
	if err := b.EndSite(3); err != nil {
		t.Fatal(err)
	}
	if err := a.Merge(b); err != nil {
		t.Errorf("Merge rejected a closed aggregate: %v", err)
	}

	cfg := tConfig()
	cfg.NumSites++
	c, _ := New(cfg)
	if err := a.Merge(c); err == nil {
		t.Error("Merge accepted a different site count")
	}
	cfg = tConfig()
	cfg.Cases = []measure.Case{measure.CaseDefault}
	d, _ := New(cfg)
	if err := a.Merge(d); err == nil {
		t.Error("Merge accepted a different case set")
	}
}

// TestMergeRejectsStandardTables pins that Merge adds per-standard tallies
// only between aggregates with the same dense standard table: the tallies
// add by index, so built from mappings that name different standards, one
// index would stand for two standards. Mappings that name the same
// standards share the table and merge.
func TestMergeRejectsStandardTables(t *testing.T) {
	base := tStandards()
	reversed := slices.Clone(base)
	slices.Reverse(reversed)
	renamed := slices.Clone(base)
	renamed[0] = "NOT-IN-CATALOG"
	single := make([]standards.Abbrev, tNumFeatures)
	for id := range single {
		single[id] = base[0]
	}
	for _, tc := range []struct {
		name  string
		stdOf []standards.Abbrev
		ok    bool
	}{
		{"same mapping", base, true},
		{"same standards, features remapped", reversed, true},
		{"one standard renamed", renamed, false},
		{"fewer standards", single, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, err := New(tConfig())
			if err != nil {
				t.Fatal(err)
			}
			cfg := tConfig()
			cfg.Standards = tc.stdOf
			b, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			feed(t, b, tSurvey(3)[:4])
			err = a.Merge(b)
			if tc.ok && err != nil {
				t.Errorf("Merge rejected the same standard table: %v", err)
			}
			if !tc.ok && err == nil {
				t.Error("Merge accepted a different standard table")
			}
		})
	}
}

// TestUntrackedCaseQueries pins the warm behavior for cases the aggregate
// never tracked: zero feature counts, empty standard counts.
func TestUntrackedCaseQueries(t *testing.T) {
	agg, err := New(tConfig())
	if err != nil {
		t.Fatal(err)
	}
	feed(t, agg, tSurvey(5))
	fs := agg.FeatureSites(measure.CaseGhostery)
	for id, n := range fs {
		if n != 0 {
			t.Fatalf("untracked case has %d sites for feature %d", n, id)
		}
	}
	if got := agg.StandardSites(measure.CaseGhostery); len(got) != 0 {
		t.Errorf("untracked case has standard counts %v", got)
	}
	if !agg.HasCase(measure.CaseDefault) || agg.HasCase(measure.CaseGhostery) {
		t.Error("HasCase misreports the tracked case set")
	}
}

// TestMergeOverlappingSites pins what Merge does when both aggregates hold
// the same site — the duplicate-lease shape a distributed coordinator
// would feed it by merging a re-issued lease twice. The tallies are
// per-site sums with no site identity attached, so the overlap
// double-counts rather than deduplicating. That is by design (it keeps
// Merge a pure tally addition), and it is exactly why internal/dist commits
// each lease at most once and drops duplicate commits instead of leaning on
// Merge to sort it out.
func TestMergeOverlappingSites(t *testing.T) {
	build := func() *Aggregate {
		a, err := New(tConfig())
		if err != nil {
			t.Fatal(err)
		}
		sf := measure.NewBitset(tNumFeatures)
		sf.Set(0)
		sf.Set(7)
		if err := a.AddVisit(Visit{Case: measure.CaseDefault, Round: 0, Site: 5, Features: sf, Invocations: 10, Pages: 2}); err != nil {
			t.Fatal(err)
		}
		if err := a.EndSite(5); err != nil {
			t.Fatal(err)
		}
		return a
	}
	a, b := build(), build()
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}

	fs := a.FeatureSites(measure.CaseDefault)
	if fs[0] != 2 || fs[7] != 2 {
		t.Errorf("overlapping site counted %d/%d times per feature; duplicate leases double-count (want 2/2)", fs[0], fs[7])
	}
	if got := a.MeasuredCount(); got != 2 {
		t.Errorf("MeasuredCount = %d after overlapping merge; one physical site counts twice (want 2)", got)
	}
	inv, pages := a.Totals()
	if inv != 20 || pages != 4 {
		t.Errorf("Totals = (%d, %d) after overlapping merge; want doubled (20, 4)", inv, pages)
	}
}

// sourceAnswers is every Source answer over all four cases.
type sourceAnswers struct {
	FeatureSites, StandardSites, BlockedSites, HasCase []any
	Cases                                              []measure.Case
	Complexity                                         []int
	NSP                                                []float64
	Measured, NumFeatures, NumSites                    int
	Invocations, Pages                                 int64
}

func answersOf(s Source) sourceAnswers {
	out := sourceAnswers{
		Cases:       s.Cases(),
		Complexity:  s.Complexity(),
		NSP:         s.NewStandardsPerRound(),
		Measured:    s.MeasuredCount(),
		NumFeatures: s.NumFeatures(),
		NumSites:    s.NumSites(),
	}
	out.Invocations, out.Pages = s.Totals()
	for _, c := range measure.AllCases() {
		out.FeatureSites = append(out.FeatureSites, s.FeatureSites(c))
		out.StandardSites = append(out.StandardSites, s.StandardSites(c))
		out.BlockedSites = append(out.BlockedSites, s.BlockedSites(c))
		out.HasCase = append(out.HasCase, s.HasCase(c))
	}
	return out
}

// TestAddVisitBorrowsFeatures pins the Visit contract: the aggregate only
// borrows Features for the call. A survey over all four cases, with rounds
// arriving out of order and failed sites, is fed twice: once with fresh
// clones, and once through one bitset that is overwritten right after each
// call. Both aggregates, fed visit by visit or in batches, must answer
// every Source query identically.
func TestAddVisitBorrowsFeatures(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cases := measure.AllCases()
	var sites []tSiteEvents
	for site := 0; site < tNumSites; site++ {
		ev := tSiteEvents{site: site}
		for _, cs := range cases {
			for _, round := range rng.Perm(tRounds) {
				features := measure.NewBitset(tNumFeatures)
				for n := rng.Intn(20); n >= 0; n-- {
					features.Set(rng.Intn(tNumFeatures))
				}
				ev.visits = append(ev.visits, Visit{
					Case: cs, Round: round, Site: site, Features: features,
					Invocations: int64(rng.Intn(100)), Pages: 1 + rng.Intn(13),
				})
			}
		}
		rng.Shuffle(len(ev.visits), func(i, j int) { ev.visits[i], ev.visits[j] = ev.visits[j], ev.visits[i] })
		if site%7 == 3 {
			ev.fails = []int{site}
		}
		sites = append(sites, ev)
	}

	for _, batched := range []bool{false, true} {
		cfg := tConfig()
		cfg.Cases = cases
		fresh, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		borrowed, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		scratch := measure.NewBitset(tNumFeatures)
		for _, ev := range sites {
			for _, v := range ev.visits {
				clone := v
				clone.Features = v.Features.Clone()
				if err := fresh.AddVisit(clone); err != nil {
					t.Fatal(err)
				}
				copy(scratch, v.Features)
				v.Features = scratch
				if batched {
					err = borrowed.Apply(Batch{Visits: []Visit{v}})
				} else {
					err = borrowed.AddVisit(v)
				}
				if err != nil {
					t.Fatal(err)
				}
				for i := range scratch {
					scratch[i] = ^uint64(0)
				}
			}
			for _, a := range []*Aggregate{fresh, borrowed} {
				if err := a.Apply(Batch{Fails: ev.fails, Ends: []int{ev.site}}); err != nil {
					t.Fatal(err)
				}
			}
		}
		if got, want := answersOf(borrowed), answersOf(fresh); !reflect.DeepEqual(got, want) {
			t.Errorf("batched=%v: aggregate fed a reused bitset answers differently:\n got %+v\nwant %+v", batched, got, want)
		}
	}
}
