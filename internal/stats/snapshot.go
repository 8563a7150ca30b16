package stats

import (
	"slices"

	"repro/internal/measure"
	"repro/internal/standards"
)

// Source is the read-side query surface an Analysis consumes: the set of
// aggregate questions internal/analysis asks about a survey. Both the live,
// lock-striped *Aggregate and its immutable *Snapshot satisfy it, so every
// report/analysis product can be computed either against the mutable write
// side (batch runs, which quiesce before reading) or against an epoch
// snapshot (the query server, whose readers must never contend with
// ingestion).
type Source interface {
	NumFeatures() int
	NumSites() int
	Cases() []measure.Case
	HasCase(measure.Case) bool
	MeasuredCount() int
	Totals() (invocations, pages int64)
	FeatureSites(measure.Case) []int
	StandardSites(measure.Case) map[standards.Abbrev]int
	BlockedSites(measure.Case) map[standards.Abbrev]int
	Complexity() []int
	NewStandardsPerRound() []float64
	// SiteStandards and StandardNames may return shared slices; callers
	// must not modify them.
	SiteStandards(site int) (measure.Bitset, bool)
	StandardNames() []standards.Abbrev
}

var (
	_ Source = (*Aggregate)(nil)
	_ Source = (*Snapshot)(nil)
)

// Snapshot is an immutable, point-in-time copy of an Aggregate's derived
// tallies, published RCU-style: writers keep mutating the lock-striped
// aggregate while any number of readers query the snapshot without taking a
// single lock. Snapshots are only published at whole-write boundaries —
// after a Merge completes, after a batch of site folds, or on an explicit
// Publish — so a snapshot never exposes a torn state: it always equals the
// aggregate after some integer number of completed merges/folds.
//
// Every query method matches the Aggregate method of the same name exactly
// (same untracked-case behavior, and copies out like it except for the
// per-site sets, which an immutable snapshot shares), which is what lets a
// warm analysis — and therefore every report artifact — be computed from a
// snapshot byte-identically to the batch path.
type Snapshot struct {
	epoch       uint64
	numFeatures int
	numSites    int
	cases       []measure.Case
	caseIdx     map[measure.Case]int
	defIdx      int

	invocations []int64
	pages       []int64
	maxRound    []int
	openSites   int

	// stdNames is the aggregate's dense standard table, shared: it never
	// changes after New. The per-standard tallies are copies.
	stdNames     []standards.Abbrev
	featureSites [][]int
	stdSites     [][]int
	blockedPairs [][]int
	complexity   []int
	nspSums      []int64
	nspMeasured  int
	measured     int
	stdWords     int
	siteStd      []uint64
	observed     measure.Bitset
}

// Epoch is the snapshot's publication sequence number: it starts at 1 and
// increases by one per publication, so readers can key caches by it and
// detect staleness with a single comparison.
func (s *Snapshot) Epoch() uint64 { return s.epoch }

// NumFeatures returns the corpus size.
func (s *Snapshot) NumFeatures() int { return s.numFeatures }

// NumSites returns the site-list size.
func (s *Snapshot) NumSites() int { return s.numSites }

// OpenSites reports how many sites were mid-flight when the snapshot was
// taken.
func (s *Snapshot) OpenSites() int { return s.openSites }

// Cases returns the tracked cases in canonical order.
func (s *Snapshot) Cases() []measure.Case {
	return append([]measure.Case(nil), s.cases...)
}

// HasCase reports whether the snapshot tracks the case.
func (s *Snapshot) HasCase(c measure.Case) bool {
	_, ok := s.caseIdx[c]
	return ok
}

// MeasuredCount returns how many sites produced measurements and never
// failed a visit, as of the snapshot.
func (s *Snapshot) MeasuredCount() int { return s.measured }

// Totals returns the survey-wide invocation and page-visit sums (Table 1)
// as of the snapshot.
func (s *Snapshot) Totals() (invocations, pages int64) {
	for ci := range s.cases {
		invocations += s.invocations[ci]
		pages += s.pages[ci]
	}
	return invocations, pages
}

// FeatureSites returns per-feature site counts under the case; untracked
// cases return all zeros, mirroring Aggregate.FeatureSites.
func (s *Snapshot) FeatureSites(c measure.Case) []int {
	out := make([]int, s.numFeatures)
	ci, ok := s.caseIdx[c]
	if !ok {
		return out
	}
	copy(out, s.featureSites[ci])
	return out
}

// StandardSites returns the number of sites using each standard under the
// case.
func (s *Snapshot) StandardSites(c measure.Case) map[standards.Abbrev]int {
	ci, ok := s.caseIdx[c]
	if !ok {
		return make(map[standards.Abbrev]int)
	}
	return countsByName(s.stdNames, s.stdSites[ci])
}

// BlockedSites returns the per-standard block-rate numerators against the
// case; an untracked case blocks everything, so the default-case counts are
// returned, mirroring Aggregate.BlockedSites.
func (s *Snapshot) BlockedSites(c measure.Case) map[standards.Abbrev]int {
	ci, ok := s.caseIdx[c]
	if !ok {
		return s.StandardSites(measure.CaseDefault)
	}
	return countsByName(s.stdNames, s.blockedPairs[ci])
}

// Complexity returns the standards-per-measured-site multiset, ascending —
// the same series Aggregate.Complexity returns.
func (s *Snapshot) Complexity() []int {
	return expandComplexity(s.complexity)
}

// NewStandardsPerRound returns Table 3's series as of the snapshot.
func (s *Snapshot) NewStandardsPerRound() []float64 {
	if s.defIdx < 0 {
		return nil
	}
	maxRound := s.maxRound[s.defIdx]
	if maxRound < 0 {
		return nil
	}
	out := make([]float64, maxRound+1)
	for r := range out {
		if r < len(s.nspSums) {
			out[r] = float64(s.nspSums[r])
		}
	}
	if s.nspMeasured == 0 {
		return out
	}
	for i := range out {
		out[i] /= float64(s.nspMeasured)
	}
	return out
}

// SiteStandards returns the site's default-case standard set as of the
// snapshot, as Aggregate.SiteStandards does, but shares it: a snapshot
// never changes, and Figure 5 reads every site's set on each render.
func (s *Snapshot) SiteStandards(site int) (measure.Bitset, bool) {
	if !s.observed.Get(site) {
		return nil, false
	}
	return s.siteStd[site*s.stdWords : (site+1)*s.stdWords], true
}

// StandardNames lists the standards SiteStandards' bits index. The slice
// is shared.
func (s *Snapshot) StandardNames() []standards.Abbrev { return s.stdNames }

// Snapshot returns the most recently published snapshot, publishing one
// first if none exists yet. It never blocks on ingestion once a snapshot
// has been published: the common path is a single atomic load.
func (a *Aggregate) Snapshot() *Snapshot {
	if s := a.snap.Load(); s != nil {
		return s
	}
	return a.Publish()
}

// Epoch returns the epoch of the most recently published snapshot, 0 when
// none has been published yet.
func (a *Aggregate) Epoch() uint64 {
	if s := a.snap.Load(); s != nil {
		return s.epoch
	}
	return 0
}

// Publish builds and publishes a fresh snapshot of the aggregate's current
// state and returns it. Publication is serialized with Merge, so a snapshot
// always reflects an integer number of completed merges; writers on the
// per-visit path (AddVisit/Apply) are captured at whole-site granularity
// for every derived tally, while the raw invocation/page totals may include
// visits of still-open sites.
//
// Merge publishes automatically after every merge (the lease-commit path);
// Publish is for everyone else — a batch load that wants its one snapshot
// after ingestion, or a server forcing a refresh.
func (a *Aggregate) Publish() *Snapshot {
	a.pubMu.Lock()
	defer a.pubMu.Unlock()
	return a.publishLocked()
}

// publishLocked builds the snapshot copy and swaps it in. Must hold pubMu.
func (a *Aggregate) publishLocked() *Snapshot {
	a.epochSeq++
	s := &Snapshot{
		epoch:       a.epochSeq,
		numFeatures: a.cfg.NumFeatures,
		numSites:    a.cfg.NumSites,
		cases:       a.cfg.Cases,
		caseIdx:     a.caseIdx,
		defIdx:      a.defIdx,
		invocations: make([]int64, len(a.cfg.Cases)),
		pages:       make([]int64, len(a.cfg.Cases)),
		maxRound:    make([]int, len(a.cfg.Cases)),
	}
	for ci := range s.maxRound {
		s.maxRound[ci] = -1
	}
	for si := range a.stripes {
		st := &a.stripes[si]
		st.mu.Lock()
		for ci := range a.cfg.Cases {
			s.invocations[ci] += st.invocations[ci]
			s.pages[ci] += st.pages[ci]
			if st.maxRound[ci] > s.maxRound[ci] {
				s.maxRound[ci] = st.maxRound[ci]
			}
		}
		s.openSites += len(st.open)
		st.mu.Unlock()
	}

	a.foldMu.Lock()
	s.stdNames = a.stdNames
	s.featureSites = make([][]int, len(a.cfg.Cases))
	s.stdSites = make([][]int, len(a.cfg.Cases))
	s.blockedPairs = make([][]int, len(a.cfg.Cases))
	for ci := range a.cfg.Cases {
		s.featureSites[ci] = slices.Clone(a.featureSites[ci])
		s.stdSites[ci] = slices.Clone(a.stdSites[ci])
		s.blockedPairs[ci] = slices.Clone(a.blockedPairs[ci])
	}
	s.complexity = slices.Clone(a.complexity)
	s.nspSums = append([]int64(nil), a.nspSums...)
	s.nspMeasured = a.nspMeasured
	s.measured = a.measured
	s.stdWords = a.stdWords
	s.siteStd = slices.Clone(a.siteStd)
	s.observed = slices.Clone(a.observed)
	a.foldMu.Unlock()

	a.snap.Store(s)
	return s
}
