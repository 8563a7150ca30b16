package analysis

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"

	"repro/internal/alexa"
	"repro/internal/cve"
	"repro/internal/firefoxhist"
	"repro/internal/measure"
	"repro/internal/standards"
	"repro/internal/stats"
	"repro/internal/webidl"
)

// Analysis joins a survey's measurements with the corpus it measured. Every
// statistic — feature and standard popularity, block rates, complexity,
// new standards per round, and the per-site default-case standard sets
// behind Figures 5 and 9 — is read from one stats.Source: the mergeable
// aggregate a pipeline maintained while the survey ran, one folded from
// spill files or from a saved log, or an immutable snapshot of one (the
// query server's epoch read path).
//
// An Analysis is safe for concurrent use when its Source is, as both
// *stats.Aggregate and *stats.Snapshot are.
type Analysis struct {
	Reg *webidl.Registry
	// Agg answers every query.
	Agg stats.Source

	// stdOf[featureID] is the feature's standard, memoized.
	stdOf []standards.Abbrev
}

// New builds an analysis of a log: it folds the log into an aggregate
// (stats.FromLog) and analyzes that, exactly as FromStats would. It
// accepts any log with at least one feature, as every decoded log has,
// including one with cases outside measure.AllCases or fewer features than
// reg.
func New(log *measure.Log, reg *webidl.Registry) *Analysis {
	agg, err := stats.FromLog(log, logStandards(log, reg), logCases(log))
	if err != nil {
		// logStandards and logCases meet FromLog's preconditions, so only
		// a featureless log, which no codec decodes, gets here.
		panic(fmt.Sprintf("analysis: folding the log: %v", err))
	}
	return FromStats(agg, reg)
}

// FromStats builds an analysis from a statistics source — a live mergeable
// aggregate or an immutable snapshot.
func FromStats(src stats.Source, reg *webidl.Registry) *Analysis {
	return &Analysis{Agg: src, Reg: reg, stdOf: stats.StandardsOf(reg)}
}

// logStandards maps each of the log's features to its standard. Features
// beyond reg's corpus (a log written against a larger one) map to the empty
// standard, which no catalog entry names.
func logStandards(log *measure.Log, reg *webidl.Registry) []standards.Abbrev {
	stdOf := make([]standards.Abbrev, log.NumFeatures)
	copy(stdOf, stats.StandardsOf(reg))
	return stdOf
}

// logCases lists the survey's canonical cases, then any other case the log
// holds in name order, so the aggregate tracks everything the log recorded.
func logCases(log *measure.Log) []measure.Case {
	cases := measure.AllCases()
	var extra []measure.Case
	for c := range log.Cases {
		if !slices.Contains(cases, c) {
			extra = append(extra, c)
		}
	}
	slices.Sort(extra)
	return append(cases, extra...)
}

// SiteStandards returns, per site, the set of standards with at least one
// feature observed under the default case (nil for a site the default case
// never observed). The source keeps per-site sets for the default case
// only, so any other case returns nil.
//
// Deprecated: Figures 5 and 9 read the source's per-site sets directly;
// see VisitWeightedPopularity and HumanDelta.
func (a *Analysis) SiteStandards(c measure.Case) []map[standards.Abbrev]bool {
	if c != measure.CaseDefault {
		return nil
	}
	names := a.Agg.StandardNames()
	out := make([]map[standards.Abbrev]bool, a.Agg.NumSites())
	for site := range out {
		set, ok := a.Agg.SiteStandards(site)
		if !ok {
			continue
		}
		out[site] = make(map[standards.Abbrev]bool)
		set.ForEach(len(names), func(i int) { out[site][names[i]] = true })
	}
	return out
}

// StandardSites returns the number of sites using each standard under the
// case ("standard popularity" numerators, §5.1).
func (a *Analysis) StandardSites(c measure.Case) map[standards.Abbrev]int {
	return a.Agg.StandardSites(c)
}

// FeatureSites returns per-feature site counts under the case ("feature
// popularity" numerators).
func (a *Analysis) FeatureSites(c measure.Case) []int {
	return a.Agg.FeatureSites(c)
}

// FeatureBands summarizes §5.3: how many corpus features were never seen,
// and how many were seen on fewer than onePct sites.
type FeatureBands struct {
	// Total is the corpus size (1,392).
	Total int
	// NeverUsed counts features observed on zero sites (paper: 689).
	NeverUsed int
	// UnderOnePct counts features observed on more than zero but fewer
	// than 1% of sites (paper: 416 default, 83% cumulative blocking).
	UnderOnePct int
	// OnePctThreshold is the site-count threshold used.
	OnePctThreshold int
}

// Bands computes the feature-popularity bands for a case.
func (a *Analysis) Bands(c measure.Case) FeatureBands {
	fs := a.FeatureSites(c)
	// 1% of the ranking, with a floor of 2 so the band stays meaningful
	// at sub-paper scales (a threshold of 1 would make "used on fewer
	// than 1% of sites" unsatisfiable for used features).
	threshold := a.Agg.NumSites() / 100
	if threshold < 2 {
		threshold = 2
	}
	b := FeatureBands{Total: len(fs), OnePctThreshold: threshold}
	for _, n := range fs {
		switch {
		case n == 0:
			b.NeverUsed++
		case n < threshold:
			b.UnderOnePct++
		}
	}
	return b
}

// BlockRate is one standard's §5.1 block-rate measurement.
type BlockRate struct {
	Standard standards.Abbrev
	// DefaultSites is the number of sites using the standard in the
	// default case.
	DefaultSites int
	// BlockedSites is the number of default-using sites on which no
	// feature of the standard executed under the blocking case.
	BlockedSites int
	// Rate is BlockedSites / DefaultSites (0 when DefaultSites is 0).
	Rate float64
}

// BlockRates computes per-standard block rates between the default case and
// a blocking case, per the paper's definition: of the sites that used the
// standard by default, the fraction on which no feature of the standard
// executed with blocking installed.
func (a *Analysis) BlockRates(blockingCase measure.Case) map[standards.Abbrev]BlockRate {
	def := a.StandardSites(measure.CaseDefault)
	blocked := a.Agg.BlockedSites(blockingCase)
	out := make(map[standards.Abbrev]BlockRate)
	for _, std := range standards.Catalog() {
		br := BlockRate{
			Standard:     std.Abbrev,
			DefaultSites: def[std.Abbrev],
			BlockedSites: blocked[std.Abbrev],
		}
		if br.DefaultSites > 0 {
			br.Rate = float64(br.BlockedSites) / float64(br.DefaultSites)
		}
		out[std.Abbrev] = br
	}
	return out
}

// Complexity returns, per measured site with default-case observations, the
// number of standards used in the default case (§5.9 / Figure 8), in
// ascending order (its consumers — histograms, CDFs — are
// order-insensitive).
func (a *Analysis) Complexity() []int {
	return a.Agg.Complexity()
}

// StandardPopularityCDF computes Figure 3: the cumulative distribution of
// standard popularity (sites using each standard, default case), including
// never-observed standards as zeros.
func (a *Analysis) StandardPopularityCDF() []CDFPoint {
	counts := a.StandardSites(measure.CaseDefault)
	var values []float64
	for _, std := range standards.Catalog() {
		values = append(values, float64(counts[std.Abbrev]))
	}
	return CDF(values)
}

// VisitWeighted is one standard's Figure 5 point.
type VisitWeighted struct {
	Standard standards.Abbrev
	// SiteFraction is the portion of all measured sites using the
	// standard.
	SiteFraction float64
	// VisitFraction is the estimated portion of all site views using it
	// (sites weighted by Alexa monthly visits).
	VisitFraction float64
}

// VisitWeightedPopularity computes Figure 5 against an Alexa ranking, over
// the sites the default case observed. One pass over the sites tallies
// sites and visits by the source's dense standard index, walking each
// set's words inline: the query server runs it on every /report render.
func (a *Analysis) VisitWeightedPopularity(rank *alexa.Ranking) []VisitWeighted {
	names := a.Agg.StandardNames()
	sites := make([]float64, len(names))
	visits := make([]float64, len(names))
	var measured, totalVisits float64
	for site := 0; site < a.Agg.NumSites(); site++ {
		set, ok := a.Agg.SiteStandards(site)
		if !ok {
			continue
		}
		v := float64(rank.Sites[site].MonthlyVisits)
		measured++
		totalVisits += v
		for w, word := range set {
			for ; word != 0; word &= word - 1 {
				i := w*64 + bits.TrailingZeros64(word)
				sites[i]++
				visits[i] += v
			}
		}
	}
	index := make(map[standards.Abbrev]int, len(names))
	for i, std := range names {
		index[std] = i
	}
	var out []VisitWeighted
	for _, std := range standards.Catalog() {
		vw := VisitWeighted{Standard: std.Abbrev}
		if i, ok := index[std.Abbrev]; ok {
			if measured > 0 {
				vw.SiteFraction = sites[i] / measured
			}
			if totalVisits > 0 {
				vw.VisitFraction = visits[i] / totalVisits
			}
		}
		out = append(out, vw)
	}
	return out
}

// AgePoint is one standard's Figure 6 point.
type AgePoint struct {
	Standard standards.Abbrev
	// Introduced is the standard's implementation date per the paper's
	// rule (most popular feature's introduction; ties → earliest).
	Introduced firefoxhist.Release
	// Sites is the standard's default-case popularity.
	Sites int
	// BlockRate is the standard's combined-extension block rate.
	BlockRate float64
}

// AgeSeries computes Figure 6 from the release history.
func (a *Analysis) AgeSeries(hist *firefoxhist.History) []AgePoint {
	featureSites := a.FeatureSites(measure.CaseDefault)
	stdSites := a.StandardSites(measure.CaseDefault)
	rates := a.BlockRates(measure.CaseBlocking)
	var out []AgePoint
	for _, std := range standards.Catalog() {
		rel, ok := hist.StandardDate(std.Abbrev, func(f *webidl.Feature) int {
			if f.ID >= len(featureSites) {
				return 0 // a log of a smaller corpus never saw the feature
			}
			return featureSites[f.ID]
		})
		if !ok {
			continue
		}
		out = append(out, AgePoint{
			Standard:   std.Abbrev,
			Introduced: rel,
			Sites:      stdSites[std.Abbrev],
			BlockRate:  rates[std.Abbrev].Rate,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Introduced.Date.Before(out[j].Introduced.Date) })
	return out
}

// AdVsTracker is one standard's Figure 7 point.
type AdVsTracker struct {
	Standard standards.Abbrev
	// AdRate is the block rate with only the ad blocker installed.
	AdRate float64
	// TrackerRate is the block rate with only the tracking blocker.
	TrackerRate float64
	// Sites is the default-case popularity (the figure's point size).
	Sites int
}

// AdVsTrackerRates computes Figure 7.
func (a *Analysis) AdVsTrackerRates() []AdVsTracker {
	ad := a.BlockRates(measure.CaseAdBlock)
	tr := a.BlockRates(measure.CaseGhostery)
	sites := a.StandardSites(measure.CaseDefault)
	var out []AdVsTracker
	for _, std := range standards.Catalog() {
		if sites[std.Abbrev] == 0 {
			continue
		}
		out = append(out, AdVsTracker{
			Standard:    std.Abbrev,
			AdRate:      ad[std.Abbrev].Rate,
			TrackerRate: tr[std.Abbrev].Rate,
			Sites:       sites[std.Abbrev],
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Standard < out[j].Standard })
	return out
}

// Table2Row joins a standard's measured results with its CVE count for the
// paper's Table 2.
type Table2Row struct {
	Standard  standards.Standard
	Features  int
	Sites     int
	BlockRate float64
	CVEs      int
}

// Table2 computes the measured Table 2 (standards used on at least 1% of
// sites or carrying at least one CVE).
func (a *Analysis) Table2(db *cve.Database) []Table2Row {
	sites := a.StandardSites(measure.CaseDefault)
	rates := a.BlockRates(measure.CaseBlocking)
	perCVE := db.PerStandard()
	onePct := a.Agg.NumSites() / 100
	if onePct < 1 {
		onePct = 1
	}
	var out []Table2Row
	for _, std := range standards.Catalog() {
		row := Table2Row{
			Standard:  std,
			Features:  std.Features,
			Sites:     sites[std.Abbrev],
			BlockRate: rates[std.Abbrev].Rate,
			CVEs:      perCVE[std.Abbrev],
		}
		if row.Sites >= onePct || row.CVEs > 0 {
			out = append(out, row)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].CVEs != out[j].CVEs {
			return out[i].CVEs > out[j].CVEs
		}
		return out[i].Sites > out[j].Sites
	})
	return out
}

// NewStandardsPerRound computes Table 3: the average number of standards
// first observed in each round of the default case, across measured sites
// (nil when the default case was never observed).
func (a *Analysis) NewStandardsPerRound() []float64 {
	return a.Agg.NewStandardsPerRound()
}

// HumanDelta compares one site's manually-observed standards against the
// automated survey's default-case standards for the site (Figure 9's
// per-site statistic: standards seen by the human but never by the monkey).
func (a *Analysis) HumanDelta(site int, humanCounts map[int]int64) int {
	names := a.Agg.StandardNames()
	seen := make(map[standards.Abbrev]bool)
	auto, _ := a.Agg.SiteStandards(site)
	auto.ForEach(len(names), func(i int) { seen[names[i]] = true })
	delta := 0
	for id := range humanCounts {
		if std := a.stdOf[id]; !seen[std] {
			seen[std] = true
			delta++
		}
	}
	return delta
}

// UsedStandards counts standards observed on at least one site under the
// case.
func (a *Analysis) UsedStandards(c measure.Case) int {
	n := 0
	for _, count := range a.StandardSites(c) {
		if count > 0 {
			n++
		}
	}
	return n
}
