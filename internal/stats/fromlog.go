package stats

import (
	"fmt"
	"slices"

	"repro/internal/measure"
	"repro/internal/standards"
)

// FromLog folds a full measurement log into a fresh spill-only Aggregate by
// replaying every recorded visit through the same AddVisit/AddFailure/
// EndSite path a live shard uses, then restoring what a log keeps only in
// total: each case's invocation and page sums and its round count. The
// resulting aggregate answers every aggregate query identically to a scan
// of the same log. It is the one aggregate path behind an analysis of a
// saved log and the query server's warm-up from one.
//
// The visits carry the log's own bitsets, uncloned: the aggregate only
// borrows them for the call (see Visit), so the log is left as it was.
//
// stdOf is the per-feature standard mapping (see StandardsOf) and must
// match the log's corpus size. cases must cover every case the log holds; a
// superset is always safe.
func FromLog(log *measure.Log, stdOf []standards.Abbrev, cases []measure.Case) (*Aggregate, error) {
	if len(stdOf) != log.NumFeatures {
		return nil, fmt.Errorf("stats: %d standards mappings for a %d-feature log", len(stdOf), log.NumFeatures)
	}
	for c := range log.Cases {
		if !slices.Contains(cases, c) {
			return nil, fmt.Errorf("stats: log case %q not in the aggregate's case set", c)
		}
	}
	agg, err := New(Config{
		NumFeatures: log.NumFeatures,
		NumSites:    len(log.Domains),
		Standards:   stdOf,
		Cases:       cases,
		Stripes:     1,
	})
	if err != nil {
		return nil, err
	}
	caseLogs := make([]*measure.CaseLog, len(cases))
	for ci, c := range cases {
		caseLogs[ci] = log.Cases[c]
	}
	// unobserved counts sites the log marks measured without a single
	// observation: no visit can carry them, but a scan of the log counts
	// them as measured.
	unobserved := 0
	for site := range log.Domains {
		touched := false
		for ci, cl := range caseLogs {
			if cl == nil {
				continue
			}
			for round, rl := range cl.Rounds {
				sf := rl.SiteFeatures[site]
				if sf == nil {
					continue
				}
				touched = true
				err := agg.AddVisit(Visit{Case: cases[ci], Round: round, Site: site, Features: sf})
				if err != nil {
					return nil, err
				}
			}
		}
		if !touched {
			if log.Measured[site] {
				unobserved++
			}
			continue
		}
		if !log.Measured[site] {
			// Observations but not measured: one of the site's visits
			// failed, exactly what AddFailure records.
			if err := agg.AddFailure(site); err != nil {
				return nil, err
			}
		}
		if err := agg.EndSite(site); err != nil {
			return nil, err
		}
	}
	// Replayed visits carried no invocation/page counts (the log only has
	// per-case totals), and a round no site reached leaves no visit behind;
	// restore both from the log directly.
	st := &agg.stripes[0]
	st.mu.Lock()
	for ci, cl := range caseLogs {
		if cl != nil {
			st.invocations[ci] = cl.Invocations
			st.pages[ci] = cl.PagesVisited
			st.maxRound[ci] = len(cl.Rounds) - 1
		}
	}
	st.mu.Unlock()
	agg.foldMu.Lock()
	agg.measured += unobserved
	agg.foldMu.Unlock()
	return agg, nil
}
