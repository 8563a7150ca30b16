package main

import (
	"fmt"
	"sort"

	"repro/internal/logstore"
	"repro/internal/measure"
	"repro/internal/standards"
	"repro/internal/stats"
	"repro/internal/synthweb"
)

// blockedParties says which script parties a browser configuration blocks:
// AdBlock Plus drops ad and dual-purpose scripts, Ghostery drops tracker and
// dual-purpose scripts, and the blocking configuration runs both.
func blockedParties(c measure.Case) map[synthweb.Party]bool {
	switch c {
	case measure.CaseAdBlock:
		return map[synthweb.Party]bool{synthweb.PartyAd: true, synthweb.PartyDual: true}
	case measure.CaseGhostery:
		return map[synthweb.Party]bool{synthweb.PartyTracker: true, synthweb.PartyDual: true}
	case measure.CaseBlocking:
		return map[synthweb.Party]bool{synthweb.PartyAd: true, synthweb.PartyTracker: true, synthweb.PartyDual: true}
	}
	return map[synthweb.Party]bool{}
}

// truth is what the benchmark derives from the synthetic web's ground
// truth to generate surveys and check them. The web already holds each
// site's assignments (synthweb.Web.AssignmentsOf); truth keeps no copy of
// them, so a run's memory is the program's.
type truth struct {
	web         *synthweb.Web
	cases       []measure.Case
	rounds      int
	numFeatures int
	stdOf       []standards.Abbrev
	domains     []string
	// blocked[caseIndex] is the set of parties that configuration blocks.
	blocked []map[synthweb.Party]bool
}

func newTruth(web *synthweb.Web, cases []measure.Case, rounds int) *truth {
	t := &truth{
		web:         web,
		cases:       cases,
		rounds:      rounds,
		numFeatures: len(web.Registry.Features),
		stdOf:       stats.StandardsOf(web.Registry),
		domains:     make([]string, len(web.Sites)),
		blocked:     make([]map[synthweb.Party]bool, len(cases)),
	}
	for ci, c := range cases {
		t.blocked[ci] = blockedParties(c)
	}
	for i, site := range web.Sites {
		t.domains[i] = site.Domain
	}
	return t
}

// assigned maps each feature the web assigns to a site to the party that
// invokes it. A site gets each feature at most once, since a feature
// belongs to one standard and a site to each standard's site set once.
func (t *truth) assigned(site int) map[int]synthweb.Party {
	as := t.web.AssignmentsOf(t.web.Sites[site])
	m := make(map[int]synthweb.Party, len(as))
	for _, a := range as {
		m[a.Feature.ID] = a.Party
	}
	return m
}

// measurableCount is how many sites the web lets be measured.
func (t *truth) measurableCount() int {
	n := 0
	for site := range t.web.Sites {
		if t.measurable(site) {
			n++
		}
	}
	return n
}

// measurable reports whether the synthetic web lets the site be measured.
func (t *truth) measurable(site int) bool { return t.web.Sites[site].Failure == synthweb.FailNone }

// mix is splitmix64: a cheap, well-distributed hash used as the survey
// generator's per-draw randomness, so any visit can be regenerated alone.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// keepPermille is the per-round chance, in thousandths, that a visit sees
// one of its site's visible features: later rounds keep finding features
// earlier ones missed, as the paper's Table 3 shows.
const keepPermille = 850

// visit generates one (site, configuration, round) observation: the site's
// assigned features the configuration does not block, thinned by a seeded
// draw, an invocation count per kept feature, and a page count. The draw is
// keyed by feature ID, so the order of the assignments does not matter.
// feats must be zeroed and sized for the corpus.
func (t *truth) visit(seed int64, site, ci, round int, feats measure.Bitset) (invocations int64, pages int) {
	base := mix(uint64(seed) ^ mix(uint64(site)<<20^uint64(ci)<<8^uint64(round)))
	for _, a := range t.web.AssignmentsOf(t.web.Sites[site]) {
		if t.blocked[ci][a.Party] {
			continue
		}
		id := a.Feature.ID
		h := mix(base ^ uint64(id))
		if h%1000 < keepPermille {
			feats.Set(id)
			invocations += int64(1 + (h>>10)%64)
		}
	}
	return invocations, 10 + int(base%4)
}

// observations generates the visits of the given sites in spill order
// (site-major, then configuration, then round). Unmeasurable sites get no
// visits, as a crawl records them.
func (t *truth) observations(seed int64, sites []int) []logstore.Observation {
	var obs []logstore.Observation
	for _, site := range sites {
		if !t.measurable(site) {
			continue
		}
		for ci, c := range t.cases {
			for r := 0; r < t.rounds; r++ {
				feats := measure.NewBitset(t.numFeatures)
				inv, pages := t.visit(seed, site, ci, r, feats)
				obs = append(obs, logstore.Observation{Case: c, Round: r, Site: site, Features: feats, Invocations: inv, Pages: pages})
			}
		}
	}
	return obs
}

// buildLog assembles the full measurement log of a set of visits; the
// log's bitsets alias the visits'.
func (t *truth) buildLog(obs []logstore.Observation) *measure.Log {
	log := measure.NewLog(t.numFeatures, t.domains)
	for _, c := range t.cases {
		for r := 0; r < t.rounds; r++ {
			log.EnsureRound(c, r)
		}
	}
	for _, o := range obs {
		cl := log.Cases[o.Case]
		cl.Rounds[o.Round].SiteFeatures[o.Site] = o.Features
		cl.Invocations += o.Invocations
		cl.PagesVisited += int64(o.Pages)
		log.Measured[o.Site] = true
	}
	return log
}

// writeSpill streams the survey of the given sites into a spill writer the
// way a crawl shard does: every visit of a site, a failure record for an
// unmeasurable one, then the site's end marker.
func (t *truth) writeSpill(w *logstore.Writer, obs []logstore.Observation, sites []int) error {
	next := 0
	for _, site := range sites {
		if !t.measurable(site) {
			if err := w.Fail(site); err != nil {
				return err
			}
		}
		for next < len(obs) && obs[next].Site == site {
			if err := w.Append(obs[next]); err != nil {
				return err
			}
			next++
		}
		if err := w.EndSite(site); err != nil {
			return err
		}
	}
	return nil
}

// tally is what a survey's aggregate must report, computed by the
// benchmark apart from the program.
type tally struct {
	featureSites  [][]int                    // [caseIndex][feature]
	standardSites []map[standards.Abbrev]int // [caseIndex]
	measured      int
	invocations   int64
	pages         int64
}

func (t *truth) newTally() *tally {
	tl := &tally{featureSites: make([][]int, len(t.cases)), standardSites: make([]map[standards.Abbrev]int, len(t.cases))}
	for ci := range t.cases {
		tl.featureSites[ci] = make([]int, t.numFeatures)
		tl.standardSites[ci] = make(map[standards.Abbrev]int)
	}
	return tl
}

// addSite folds one site's per-configuration feature unions into the
// tally.
func (t *truth) addSite(tl *tally, unions []measure.Bitset) {
	for ci, u := range unions {
		if u == nil {
			continue
		}
		stds := make(map[standards.Abbrev]bool)
		u.ForEach(t.numFeatures, func(id int) {
			tl.featureSites[ci][id]++
			stds[t.stdOf[id]] = true
		})
		for std := range stds {
			tl.standardSites[ci][std]++
		}
	}
}

// expected tallies the survey the generator produces for every site,
// without keeping it.
func (t *truth) expected(seed int64) *tally {
	tl := t.newTally()
	feats := measure.NewBitset(t.numFeatures)
	for site := range t.web.Sites {
		if !t.measurable(site) {
			continue
		}
		tl.measured++
		unions := make([]measure.Bitset, len(t.cases))
		for ci := range t.cases {
			unions[ci] = measure.NewBitset(t.numFeatures)
			for r := 0; r < t.rounds; r++ {
				clear(feats)
				inv, pages := t.visit(seed, site, ci, r, feats)
				unions[ci].Or(feats)
				tl.invocations += inv
				tl.pages += int64(pages)
			}
		}
		t.addSite(tl, unions)
	}
	return tl
}

// tallyRecords tallies spill records: each site's visits are unioned per
// configuration, and a site counts as measured when it has a visit and no
// failure.
func (t *truth) tallyRecords(recs []logstore.SpillRecord) *tally {
	tl := t.newTally()
	unions := make(map[int][]measure.Bitset)
	failed := make(map[int]bool)
	ci := make(map[measure.Case]int, len(t.cases))
	for i, c := range t.cases {
		ci[c] = i
	}
	for _, r := range recs {
		switch r.Kind {
		case logstore.SpillObservation:
			u := unions[r.Obs.Site]
			if u == nil {
				u = make([]measure.Bitset, len(t.cases))
				unions[r.Obs.Site] = u
			}
			i := ci[r.Obs.Case]
			if u[i] == nil {
				u[i] = measure.NewBitset(t.numFeatures)
			}
			u[i].Or(r.Obs.Features)
			tl.invocations += r.Obs.Invocations
			tl.pages += int64(r.Obs.Pages)
		case logstore.SpillFailure:
			failed[r.Site] = true
		}
	}
	sites := make([]int, 0, len(unions))
	for site := range unions {
		sites = append(sites, site)
	}
	sort.Ints(sites)
	for _, site := range sites {
		if !failed[site] {
			tl.measured++
		}
		t.addSite(tl, unions[site])
	}
	return tl
}

// counts is the read side a tally is compared with: a stats.Source, or a
// cold analysis of a log.
type counts interface {
	FeatureSites(measure.Case) []int
	StandardSites(measure.Case) map[standards.Abbrev]int
}

// compare reports the first count on which got differs from the tally.
func (t *truth) compare(what string, want *tally, got counts, measured int, invocations, pages int64) error {
	if measured != want.measured {
		return fmt.Errorf("%s: %d sites measured, want %d", what, measured, want.measured)
	}
	if invocations != want.invocations || pages != want.pages {
		return fmt.Errorf("%s: totals %d invocations / %d pages, want %d / %d", what, invocations, pages, want.invocations, want.pages)
	}
	for ci, c := range t.cases {
		fs := got.FeatureSites(c)
		if len(fs) != t.numFeatures {
			return fmt.Errorf("%s: %s has %d feature counts, want %d", what, c, len(fs), t.numFeatures)
		}
		for id, n := range fs {
			if n != want.featureSites[ci][id] {
				return fmt.Errorf("%s: %s feature %d on %d sites, want %d", what, c, id, n, want.featureSites[ci][id])
			}
		}
		ss := got.StandardSites(c)
		for _, std := range standards.Catalog() {
			if ss[std.Abbrev] != want.standardSites[ci][std.Abbrev] {
				return fmt.Errorf("%s: %s standard %s on %d sites, want %d", what, c, std.Abbrev, ss[std.Abbrev], want.standardSites[ci][std.Abbrev])
			}
		}
	}
	return nil
}

// compareSource checks an aggregate (or snapshot) against a tally.
func (t *truth) compareSource(what string, want *tally, src stats.Source) error {
	inv, pages := src.Totals()
	return t.compare(what, want, src, src.MeasuredCount(), inv, pages)
}

// checkGroundTruth checks crawled spill records against the synthetic
// web: no measured feature lies outside its site's assignments, none
// belongs to a party the configuration blocks, and no visit is recorded for
// a site the web makes unmeasurable.
func (t *truth) checkGroundTruth(recs []logstore.SpillRecord) error {
	ci := make(map[measure.Case]int, len(t.cases))
	for i, c := range t.cases {
		ci[c] = i
	}
	party := make(map[int]map[int]synthweb.Party)
	var err error
	for _, r := range recs {
		if r.Kind != logstore.SpillObservation {
			continue
		}
		o := r.Obs
		if o.Site < 0 || o.Site >= len(t.domains) {
			return fmt.Errorf("visit of site %d outside the web", o.Site)
		}
		if !t.measurable(o.Site) {
			return fmt.Errorf("visit recorded for unmeasurable site %s", t.domains[o.Site])
		}
		i, ok := ci[o.Case]
		if !ok {
			return fmt.Errorf("visit of %s under %s, a configuration the survey does not run", t.domains[o.Site], o.Case)
		}
		assigned := party[o.Site]
		if assigned == nil {
			assigned = t.assigned(o.Site)
			party[o.Site] = assigned
		}
		o.Features.ForEach(t.numFeatures, func(id int) {
			if err != nil {
				return
			}
			p, ok := assigned[id]
			switch {
			case !ok:
				err = fmt.Errorf("%s %s round %d: feature %d is not assigned to the site", t.domains[o.Site], o.Case, o.Round, id)
			case t.blocked[i][p]:
				err = fmt.Errorf("%s %s round %d: feature %d of the %s party is blocked yet measured", t.domains[o.Site], o.Case, o.Round, id, p)
			}
		})
		if err != nil {
			return err
		}
	}
	return nil
}
