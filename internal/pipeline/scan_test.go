package pipeline

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/measure"
	"repro/internal/standards"
	"repro/internal/stats"
)

// scanSource is the reference implementation of stats.Source: every
// aggregate statistic derived by scanning a measure.Log site by site, the
// way analysis once answered queries over a log. The aggregate folds (live,
// from spills, from a log) are checked against it rather than against each
// other.
type scanSource struct {
	log   *measure.Log
	stdOf []standards.Abbrev
	cases []measure.Case
}

var _ stats.Source = scanSource{}

func (s scanSource) NumFeatures() int                  { return s.log.NumFeatures }
func (s scanSource) NumSites() int                     { return len(s.log.Domains) }
func (s scanSource) Cases() []measure.Case             { return slices.Clone(s.cases) }
func (s scanSource) HasCase(c measure.Case) bool       { return slices.Contains(s.cases, c) }
func (s scanSource) MeasuredCount() int                { return s.log.MeasuredCount() }
func (s scanSource) FeatureSites(c measure.Case) []int { return s.log.FeatureSites(c) }

func (s scanSource) Totals() (invocations, pages int64) {
	for _, cl := range s.log.Cases {
		invocations += cl.Invocations
		pages += cl.PagesVisited
	}
	return invocations, pages
}

// siteStandards is the set of standards with a feature in the site's union
// under the case; nil for a site the case never observed.
func (s scanSource) siteStandards(c measure.Case, site int) map[standards.Abbrev]bool {
	u := s.log.SiteUnion(c, site)
	if u == nil {
		return nil
	}
	set := make(map[standards.Abbrev]bool)
	u.ForEach(s.log.NumFeatures, func(id int) { set[s.stdOf[id]] = true })
	return set
}

func (s scanSource) StandardSites(c measure.Case) map[standards.Abbrev]int {
	out := make(map[standards.Abbrev]int)
	for site := range s.log.Domains {
		for std := range s.siteStandards(c, site) {
			out[std]++
		}
	}
	return out
}

// BlockedSites counts, per standard, the sites that used it by default and
// executed none of its features under c.
func (s scanSource) BlockedSites(c measure.Case) map[standards.Abbrev]int {
	out := make(map[standards.Abbrev]int)
	for site := range s.log.Domains {
		blk := s.siteStandards(c, site)
		for std := range s.siteStandards(measure.CaseDefault, site) {
			if !blk[std] {
				out[std]++
			}
		}
	}
	return out
}

// Complexity lists, in site order, the default-case standard count of every
// measured site the default case observed.
func (s scanSource) Complexity() []int {
	var out []int
	for site := range s.log.Domains {
		set := s.siteStandards(measure.CaseDefault, site)
		if !s.log.Measured[site] || set == nil {
			continue
		}
		out = append(out, len(set))
	}
	return out
}

// StandardNames numbers the distinct standards of the mapping in sorted
// order.
func (s scanSource) StandardNames() []standards.Abbrev {
	names := slices.Clone(s.stdOf)
	slices.Sort(names)
	return slices.Compact(names)
}

// SiteStandards is the site's default-case standard set over
// StandardNames.
func (s scanSource) SiteStandards(site int) (measure.Bitset, bool) {
	set := s.siteStandards(measure.CaseDefault, site)
	if set == nil {
		return nil, false
	}
	names := s.StandardNames()
	out := measure.NewBitset(len(names))
	for std := range set {
		i, _ := slices.BinarySearch(names, std)
		out.Set(i)
	}
	return out, true
}

func (s scanSource) NewStandardsPerRound() []float64 {
	cl := s.log.Cases[measure.CaseDefault]
	if cl == nil {
		return nil
	}
	perRound := make([]float64, len(cl.Rounds))
	measured := 0
	for site := range s.log.Domains {
		if !s.log.Measured[site] {
			continue
		}
		visited := false
		seen := make(map[standards.Abbrev]bool)
		for round, rl := range cl.Rounds {
			sf := rl.SiteFeatures[site]
			if sf == nil {
				continue
			}
			visited = true
			newStd := 0
			for id := 0; id < s.log.NumFeatures; id++ {
				if sf.Get(id) && !seen[s.stdOf[id]] {
					seen[s.stdOf[id]] = true
					newStd++
				}
			}
			perRound[round] += float64(newStd)
		}
		if visited {
			measured++
		}
	}
	if measured == 0 {
		return perRound
	}
	for i := range perRound {
		perRound[i] /= float64(measured)
	}
	return perRound
}

// sourceDiffs lists every query on which got disagrees with the reference
// scan. Complexity is compared as a multiset (the folds return it
// ascending), a series that is nil on one side must be empty on the other,
// and each site's default-case standards are compared by name against the
// log's SiteUnion.
func sourceDiffs(got stats.Source, ref scanSource) []string {
	var diffs []string
	check := func(ok bool, what string) {
		if !ok {
			diffs = append(diffs, what)
		}
	}
	check(got.NumFeatures() == ref.NumFeatures(), "NumFeatures")
	check(got.NumSites() == ref.NumSites(), "NumSites")
	check(got.MeasuredCount() == ref.MeasuredCount(), "MeasuredCount")
	gotInv, gotPages := got.Totals()
	refInv, refPages := ref.Totals()
	check(gotInv == refInv && gotPages == refPages, "Totals")
	for _, c := range append(ref.Cases(), "never-ran") {
		check(got.HasCase(c) == ref.HasCase(c), "HasCase("+string(c)+")")
		check(reflect.DeepEqual(got.FeatureSites(c), ref.FeatureSites(c)), "FeatureSites("+string(c)+")")
		check(reflect.DeepEqual(got.StandardSites(c), ref.StandardSites(c)), "StandardSites("+string(c)+")")
		check(reflect.DeepEqual(got.BlockedSites(c), ref.BlockedSites(c)), "BlockedSites("+string(c)+")")
	}
	refComplexity := ref.Complexity()
	slices.Sort(refComplexity)
	check(slices.Equal(got.Complexity(), refComplexity), "Complexity")
	check(slices.Equal(got.NewStandardsPerRound(), ref.NewStandardsPerRound()), "NewStandardsPerRound")
	names := got.StandardNames()
	for site := 0; site < ref.NumSites(); site++ {
		set, ok := got.SiteStandards(site)
		var gotStd map[standards.Abbrev]bool
		if ok {
			gotStd = make(map[standards.Abbrev]bool)
			set.ForEach(len(names), func(i int) { gotStd[names[i]] = true })
		}
		check(reflect.DeepEqual(gotStd, ref.siteStandards(measure.CaseDefault, site)), fmt.Sprintf("SiteStandards(%d)", site))
	}
	for _, site := range []int{-1, ref.NumSites()} {
		_, ok := got.SiteStandards(site)
		check(!ok, fmt.Sprintf("SiteStandards(%d) outside the site list", site))
	}
	return diffs
}

// fuzzCases are the cases a fuzzed log draws from: the survey's four and
// one outside measure.AllCases.
var fuzzCases = append(measure.AllCases(), "custom")

// fuzzLog decodes fuzz bytes into a small log and a standard mapping. The
// logs cover what real ones hold and more: unvisited cells, static sites
// (visited, empty bitsets), failed sites (observed but unmeasured), sites
// marked measured without an observation, rounds no site reached, logs
// without the default case, and a case outside measure.AllCases. The
// mapping spreads features over every catalog standard plus one the
// catalog does not name, so standard sets span two bitset words.
func fuzzLog(data []byte) (*measure.Log, []standards.Abbrev, []measure.Case) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	numFeatures := 1 + next()%130
	numSites := next() % 9
	log := measure.NewLog(numFeatures, make([]string, numSites))
	caseMask := next()
	for i, c := range fuzzCases {
		if caseMask>>i&1 == 0 {
			continue
		}
		cl := &measure.CaseLog{Invocations: int64(next()), PagesVisited: int64(next())}
		for rounds := next() % 4; len(cl.Rounds) < rounds; {
			rl := &measure.RoundLog{SiteFeatures: make([]measure.Bitset, numSites)}
			for site := range rl.SiteFeatures {
				switch b := next(); b % 4 {
				case 0: // not visited this round
				case 1:
					rl.SiteFeatures[site] = measure.NewBitset(numFeatures) // a static site
				default:
					sf := measure.NewBitset(numFeatures)
					for n := b / 4 % 8; n >= 0; n-- {
						sf.Set(next() % numFeatures)
					}
					rl.SiteFeatures[site] = sf
				}
			}
			cl.Rounds = append(cl.Rounds, rl)
		}
		log.Cases[c] = cl
	}
	for site := range log.Measured {
		log.Measured[site] = next()%4 != 0
	}

	pool := []standards.Abbrev{"NOT-IN-CATALOG"}
	for _, std := range standards.Catalog() {
		pool = append(pool, std.Abbrev)
	}
	spread := next()
	stdOf := make([]standards.Abbrev, numFeatures)
	for id := range stdOf {
		stdOf[id] = pool[(id*(1+spread%7)+spread)%len(pool)]
	}
	cases := measure.AllCases()
	if log.Cases["custom"] != nil {
		cases = fuzzCases
	}
	return log, stdOf, cases
}

// FuzzFromLogMatchesScan checks the dense fold against the reference scan:
// over small random logs, every stats.Source query of stats.FromLog's
// aggregate must equal the scan's answer.
func FuzzFromLogMatchesScan(f *testing.F) {
	f.Add([]byte{})
	// 70 features, 6 sites, every case, 3 rounds of mixed cells.
	f.Add([]byte{69, 6, 0x1f, 9, 4, 3, 2, 7, 1, 0, 11, 40, 2, 3, 9, 1, 8, 2, 5, 6, 1, 3, 2, 0, 1, 2, 3})
	// Default case absent: only blocking and the custom case.
	f.Add([]byte{100, 5, 0x12, 3, 3, 2, 2, 1, 6, 9, 0, 5, 7, 12, 1, 2, 2, 40, 1, 0, 1, 2, 3, 4, 5})
	// Default case only, static sites, and a site never observed that the
	// log marks measured.
	f.Add([]byte{30, 4, 0x01, 1, 1, 2, 1, 1, 1, 0, 1, 1, 5, 0, 1, 2, 3, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		log, stdOf, cases := fuzzLog(data)
		agg, err := stats.FromLog(log, stdOf, cases)
		if err != nil {
			t.Fatal(err)
		}
		ref := scanSource{log: log, stdOf: stdOf, cases: cases}
		if diffs := sourceDiffs(agg, ref); len(diffs) > 0 {
			t.Fatalf("FromLog diverges from the reference scan on %v", diffs)
		}
		if diffs := sourceDiffs(agg.Publish(), ref); len(diffs) > 0 {
			t.Fatalf("FromLog's snapshot diverges from the reference scan on %v", diffs)
		}
	})
}
