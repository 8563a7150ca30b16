//go:build !race

// The race detector instruments map and slice operations with allocations
// of its own, so allocation counts only mean something without it.

package stats

import (
	"runtime"
	"testing"

	"repro/internal/measure"
)

// TestEndSiteAllocatesNothing pins the end of a site to no allocation:
// EndSite detaches the site's accumulator from its stripe and folds it in
// place. One site is ended before the count starts, so the per-round sums
// have already grown to the survey's round count.
func TestEndSiteAllocatesNothing(t *testing.T) {
	agg, err := New(tConfig())
	if err != nil {
		t.Fatal(err)
	}
	features := measure.NewBitset(tNumFeatures)
	for _, id := range []int{3, 40, 77, 200} {
		features.Set(id)
	}
	for site := 0; site < tNumSites; site++ {
		for _, cs := range tConfig().Cases {
			for round := 0; round < tRounds; round++ {
				if err := agg.AddVisit(Visit{Case: cs, Round: round, Site: site, Features: features, Pages: 1}); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if err := agg.EndSite(0); err != nil {
		t.Fatal(err)
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for site := 1; site < tNumSites; site++ {
		if err := agg.EndSite(site); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n != 0 {
		t.Errorf("ending %d open sites made %d allocations, want 0", tNumSites-1, n)
	}
	if n := agg.OpenSites(); n != 0 {
		t.Errorf("%d sites still open after every site ended", n)
	}
}
