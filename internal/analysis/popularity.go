package analysis

import (
	"sort"

	"repro/internal/measure"
)

// PopularFeature is one row of the feature-popularity headline table: a
// feature and the share of measured sites that executed it (§5.1's
// definition of feature popularity).
type PopularFeature struct {
	ID int
	// Name is the feature's WebIDL name, e.g. "Document.createElement".
	Name string
	// Sites is the number of measured sites that executed the feature.
	Sites int
	// Fraction is Sites over the number of measured sites.
	Fraction float64
}

// TopFeatures returns the n most popular features under the case, ordered
// by site count (ties broken by feature ID for determinism).
func (a *Analysis) TopFeatures(c measure.Case, n int) []PopularFeature {
	siteCounts := a.FeatureSites(c)
	measured := a.Agg.MeasuredCount()
	rows := make([]PopularFeature, 0, len(siteCounts))
	for id, sites := range siteCounts {
		if sites == 0 {
			continue
		}
		row := PopularFeature{ID: id, Name: a.Reg.Features[id].Name(), Sites: sites}
		if measured > 0 {
			row.Fraction = float64(sites) / float64(measured)
		}
		rows = append(rows, row)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Sites != rows[j].Sites {
			return rows[i].Sites > rows[j].Sites
		}
		return rows[i].ID < rows[j].ID
	})
	if n > 0 && len(rows) > n {
		rows = rows[:n]
	}
	return rows
}

// FeatureDelta is one row of the blocked-vs-unblocked headline table: how a
// feature's site count changes when a blocking extension is active (the
// per-feature view behind Figure 4's per-standard block rates).
type FeatureDelta struct {
	ID   int
	Name string
	// BaseSites and BlockedSites are the feature's site counts under the
	// baseline and blocking cases.
	BaseSites    int
	BlockedSites int
	// Drop is BaseSites - BlockedSites; positive when blocking prevents
	// the feature from executing somewhere.
	Drop int
	// DropRate is Drop over BaseSites (0 when the feature was unused).
	DropRate float64
}

// FeatureDeltas compares two cases feature by feature and returns the n
// features whose usage drops the most under blocking (ties broken by ID).
// Features unused in both cases are omitted.
func (a *Analysis) FeatureDeltas(base, blocked measure.Case, n int) []FeatureDelta {
	baseCounts := a.FeatureSites(base)
	blockedCounts := a.FeatureSites(blocked)
	rows := make([]FeatureDelta, 0, len(baseCounts))
	for id := range baseCounts {
		b, k := baseCounts[id], blockedCounts[id]
		if b == 0 && k == 0 {
			continue
		}
		row := FeatureDelta{ID: id, Name: a.Reg.Features[id].Name(), BaseSites: b, BlockedSites: k, Drop: b - k}
		if b > 0 {
			row.DropRate = float64(row.Drop) / float64(b)
		}
		rows = append(rows, row)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Drop != rows[j].Drop {
			return rows[i].Drop > rows[j].Drop
		}
		return rows[i].ID < rows[j].ID
	})
	if n > 0 && len(rows) > n {
		rows = rows[:n]
	}
	return rows
}
