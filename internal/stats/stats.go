package stats

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/measure"
	"repro/internal/standards"
	"repro/internal/webidl"
)

// Visit is one completed (site, case, round) crawl: the unit fed to an
// Aggregate. The aggregate only borrows Features for the duration of the
// call that takes the visit (AddVisit, or Apply for a batch): it reads the
// bitset, never writes it, and keeps no reference to it afterwards. A
// site's per-case union starts as a clone of its first visit's set, a
// default-case visit leaves behind only the round's standard set. A caller
// may therefore pass bitsets it still reads, such as a log's own cells, and
// may reuse or overwrite a bitset as soon as the call returns.
type Visit struct {
	Case        measure.Case
	Round       int
	Site        int
	Features    measure.Bitset
	Invocations int64
	Pages       int
}

// Batch groups per-visit events so a producer takes each stripe lock once
// per flush instead of once per visit. Within a batch, visits are applied
// first, then failures, then site ends — so a batch may carry a site's last
// visits and its end marker together.
type Batch struct {
	Visits []Visit
	// Fails lists sites a visit of which failed (making them unmeasurable).
	Fails []int
	// Ends lists sites whose visits are all in (this batch or earlier
	// ones); each is folded into the derived tallies and its accumulator
	// freed.
	Ends []int
}

// Config sizes an Aggregate.
type Config struct {
	// NumFeatures is the corpus size.
	NumFeatures int
	// NumSites is the site-list size.
	NumSites int
	// Standards[featureID] is the feature's standard; it drives the
	// standard-level tallies. Must have NumFeatures entries.
	Standards []standards.Abbrev
	// Cases are the browser configurations the aggregate tracks, in the
	// survey's canonical order. Visits for other cases are rejected.
	Cases []measure.Case
	// Rounds is read by nothing: rounds are counted as visits arrive, so an
	// aggregate takes any round a visit names.
	//
	// Deprecated: leave it zero.
	Rounds int
	// Stripes is the lock-stripe count; default 16.
	Stripes int
}

// StandardsOf extracts the per-feature standard mapping Config.Standards
// wants from a WebIDL registry.
func StandardsOf(reg *webidl.Registry) []standards.Abbrev {
	out := make([]standards.Abbrev, len(reg.Features))
	for i, f := range reg.Features {
		out[i] = f.Standard
	}
	return out
}

// stripe is one lock-striped partition of the aggregate. Sites map to
// stripes by index, so producers working disjoint site ranges never
// contend. The padding keeps neighboring stripe locks off one cache line.
type stripe struct {
	mu sync.Mutex
	// invocations and pages are per-case partial sums for the stripe's
	// sites; maxRound is the per-case highest round seen (-1 when none).
	invocations []int64
	pages       []int64
	maxRound    []int
	// open holds the accumulators of the stripe's in-flight sites: state
	// between a site's first visit and its EndSite. Its size is bounded
	// by the number of producers, never by the survey's site count.
	open map[int]*openSite
	_    [64]byte
}

// openSite accumulates one site's visits until EndSite folds it.
type openSite struct {
	site int
	// unions[caseIdx] is the union of the site's feature sets across
	// rounds; nil until the case's first visit.
	unions []measure.Bitset
	// defStd holds the default case's standard set per round, stdWords
	// words from defStd[round*stdWords], built as each visit arrives, so
	// the new-standards-per-round fold walks rounds in order regardless
	// of arrival order. A round with no visit stays empty, which counts
	// exactly like no round: it adds no new standards.
	defStd   []uint64
	recorded bool
	failed   bool
}

// Aggregate is the lock-striped, concurrently mergeable statistics form of
// a survey. Producers feed it visits from many goroutines (calls for one
// site must be ordered; see the package comment); afterwards its query
// methods answer every aggregate question internal/analysis asks. It keeps
// no visit's feature set past the visit's site: the full log of a survey
// lives only in its spill files.
type Aggregate struct {
	cfg     Config
	caseIdx map[measure.Case]int
	defIdx  int // index of measure.CaseDefault in cfg.Cases; -1 when absent

	// The dense standard table: stdNames lists the distinct standards of
	// cfg.Standards in sorted order, and stdIdx[featureID] is the
	// feature's index into it. Per-standard tallies are slices indexed by
	// it, and a site's standard set is a bitset of stdWords words over it.
	stdNames []standards.Abbrev
	stdIdx   []int
	stdWords int

	stripes []stripe

	// Derived tallies, folded once per site at EndSite. Guarded by foldMu;
	// fold traffic is per-site, not per-visit, so the single lock is cold.
	foldMu       sync.Mutex
	featureSites [][]int // [caseIdx][featureID] → sites using the feature
	stdSites     [][]int // [caseIdx][std] → sites using the standard
	// blockedPairs[caseIdx][std] counts sites that used std in the default
	// case but executed none of its features under the case — the §5.1
	// block-rate numerator for every (default, case) pair.
	blockedPairs [][]int
	// complexity[n] counts measured sites using exactly n standards in the
	// default case (Figure 8's population).
	complexity []int
	// nspSums[round] sums, over measured sites, the standards first seen
	// in the round (default case); nspMeasured is the population.
	nspSums     []int64
	nspMeasured int
	measured    int
	// siteStd holds each folded site's default-case standard set, stdWords
	// words from siteStd[site*stdWords]; observed marks the sites with a
	// default-case visit, failed or not, so a static site (observed, no
	// standards) differs from one the default case never reached. They are
	// Figure 5's and Figure 9's per-site data.
	siteStd  []uint64
	observed measure.Bitset
	// Fold scratch, reused by every fold: caseSets holds one standard
	// bitset per case, seen and tmp one each.
	caseSets  []uint64
	seen, tmp []uint64

	// Epoch-snapshot read path (snapshot.go). pubMu serializes snapshot
	// publication with Merge, so every published snapshot reflects an
	// integer number of completed merges; snap is the RCU pointer readers
	// load lock-free; epochSeq (guarded by pubMu) numbers publications.
	pubMu    sync.Mutex
	snap     atomic.Pointer[Snapshot]
	epochSeq uint64
}

// New builds an aggregate for a study.
func New(cfg Config) (*Aggregate, error) {
	if cfg.NumFeatures <= 0 {
		return nil, fmt.Errorf("stats: config requires a positive feature count")
	}
	if cfg.NumSites < 0 {
		return nil, fmt.Errorf("stats: negative site count %d", cfg.NumSites)
	}
	if len(cfg.Standards) != cfg.NumFeatures {
		return nil, fmt.Errorf("stats: %d standards mappings for %d features", len(cfg.Standards), cfg.NumFeatures)
	}
	if len(cfg.Cases) == 0 {
		return nil, fmt.Errorf("stats: config requires at least one case")
	}
	if cfg.Stripes <= 0 {
		cfg.Stripes = 16
	}
	a := &Aggregate{
		cfg:          cfg,
		caseIdx:      make(map[measure.Case]int, len(cfg.Cases)),
		defIdx:       -1,
		stripes:      make([]stripe, cfg.Stripes),
		featureSites: make([][]int, len(cfg.Cases)),
		stdSites:     make([][]int, len(cfg.Cases)),
		blockedPairs: make([][]int, len(cfg.Cases)),
	}
	a.stdNames = slices.Clone(cfg.Standards)
	slices.Sort(a.stdNames)
	a.stdNames = slices.Compact(a.stdNames)
	a.stdIdx = make([]int, cfg.NumFeatures)
	for id, std := range cfg.Standards {
		a.stdIdx[id], _ = slices.BinarySearch(a.stdNames, std)
	}
	a.stdWords = (len(a.stdNames) + 63) / 64
	a.complexity = make([]int, len(a.stdNames)+1)
	a.siteStd = make([]uint64, cfg.NumSites*a.stdWords)
	a.observed = measure.NewBitset(cfg.NumSites)
	a.caseSets = make([]uint64, len(cfg.Cases)*a.stdWords)
	a.seen = make([]uint64, a.stdWords)
	a.tmp = make([]uint64, a.stdWords)
	for ci, cs := range cfg.Cases {
		if _, dup := a.caseIdx[cs]; dup {
			return nil, fmt.Errorf("stats: duplicate case %q", cs)
		}
		a.caseIdx[cs] = ci
		if cs == measure.CaseDefault {
			a.defIdx = ci
		}
		a.featureSites[ci] = make([]int, cfg.NumFeatures)
		a.stdSites[ci] = make([]int, len(a.stdNames))
		a.blockedPairs[ci] = make([]int, len(a.stdNames))
	}
	for si := range a.stripes {
		a.stripes[si].invocations = make([]int64, len(cfg.Cases))
		a.stripes[si].pages = make([]int64, len(cfg.Cases))
		a.stripes[si].maxRound = make([]int, len(cfg.Cases))
		for ci := range cfg.Cases {
			a.stripes[si].maxRound[ci] = -1
		}
		a.stripes[si].open = make(map[int]*openSite)
	}
	return a, nil
}

// stripeOf maps a site index to its stripe.
func (a *Aggregate) stripeOf(site int) *stripe { return &a.stripes[site%len(a.stripes)] }

// validate rejects a visit the aggregate cannot hold.
func (a *Aggregate) validate(v Visit) error {
	if _, ok := a.caseIdx[v.Case]; !ok {
		return fmt.Errorf("stats: visit for case %q not tracked by this aggregate", v.Case)
	}
	if v.Site < 0 || v.Site >= a.cfg.NumSites {
		return fmt.Errorf("stats: visit site %d outside [0,%d)", v.Site, a.cfg.NumSites)
	}
	if v.Round < 0 {
		return fmt.Errorf("stats: negative visit round %d", v.Round)
	}
	return nil
}

// checkSite rejects a site index outside the site list.
func (a *Aggregate) checkSite(site int) error {
	if site < 0 || site >= a.cfg.NumSites {
		return fmt.Errorf("stats: site %d outside [0,%d)", site, a.cfg.NumSites)
	}
	return nil
}

// Apply folds one batch: visits first, then failures, then site ends.
// Visits are grouped by stripe so each stripe lock is taken at most once
// per batch regardless of batch size. The whole batch is validated before
// any of it is applied.
func (a *Aggregate) Apply(b Batch) error {
	for _, v := range b.Visits {
		if err := a.validate(v); err != nil {
			return err
		}
	}
	for _, sites := range [][]int{b.Fails, b.Ends} {
		for _, site := range sites {
			if err := a.checkSite(site); err != nil {
				return err
			}
		}
	}

	if len(b.Visits) > 0 {
		groups := make(map[*stripe][]int, len(a.stripes))
		for i, v := range b.Visits {
			st := a.stripeOf(v.Site)
			groups[st] = append(groups[st], i)
		}
		for st, idxs := range groups {
			st.mu.Lock()
			for _, i := range idxs {
				a.applyVisitLocked(st, b.Visits[i])
			}
			st.mu.Unlock()
		}
	}
	for _, site := range b.Fails {
		st := a.stripeOf(site)
		st.mu.Lock()
		a.applyFailLocked(st, site)
		st.mu.Unlock()
	}
	for _, site := range b.Ends {
		a.endSite(site)
	}
	return nil
}

// AddVisit records one completed visit.
func (a *Aggregate) AddVisit(v Visit) error {
	if err := a.validate(v); err != nil {
		return err
	}
	st := a.stripeOf(v.Site)
	st.mu.Lock()
	a.applyVisitLocked(st, v)
	st.mu.Unlock()
	return nil
}

// AddFailure marks a site unmeasurable (one of its visits failed).
func (a *Aggregate) AddFailure(site int) error {
	if err := a.checkSite(site); err != nil {
		return err
	}
	st := a.stripeOf(site)
	st.mu.Lock()
	a.applyFailLocked(st, site)
	st.mu.Unlock()
	return nil
}

// EndSite folds a completed site's accumulator into the derived tallies.
// Ending a site that never produced a visit or failure is a no-op.
func (a *Aggregate) EndSite(site int) error {
	if err := a.checkSite(site); err != nil {
		return err
	}
	a.endSite(site)
	return nil
}

// endSite detaches a site's accumulator from its stripe and folds it.
func (a *Aggregate) endSite(site int) {
	st := a.stripeOf(site)
	st.mu.Lock()
	o := st.open[site]
	delete(st.open, site)
	st.mu.Unlock()
	if o == nil {
		return
	}
	a.foldMu.Lock()
	a.foldLocked(o)
	a.foldMu.Unlock()
}

// EndOpenSites folds every still-open site. FromSpills calls it after
// replaying streams that lack end markers (a crashed shard's spill); a
// pipeline run ends each site as its worker finishes it instead.
func (a *Aggregate) EndOpenSites() {
	var folds []*openSite
	for si := range a.stripes {
		st := &a.stripes[si]
		st.mu.Lock()
		for site, o := range st.open {
			delete(st.open, site)
			folds = append(folds, o)
		}
		st.mu.Unlock()
	}
	a.foldMu.Lock()
	for _, o := range folds {
		a.foldLocked(o)
	}
	a.foldMu.Unlock()
}

func (a *Aggregate) applyVisitLocked(st *stripe, v Visit) {
	ci := a.caseIdx[v.Case]
	st.invocations[ci] += v.Invocations
	st.pages[ci] += int64(v.Pages)
	if v.Round > st.maxRound[ci] {
		st.maxRound[ci] = v.Round
	}
	o := st.open[v.Site]
	if o == nil {
		o = &openSite{site: v.Site, unions: make([]measure.Bitset, len(a.cfg.Cases))}
		st.open[v.Site] = o
	}
	o.recorded = true
	if o.unions[ci] == nil {
		o.unions[ci] = v.Features.Clone()
	} else {
		o.unions[ci].Or(v.Features)
	}
	if ci == a.defIdx {
		w := a.stdWords
		if n := (v.Round + 1) * w; len(o.defStd) < n {
			if o.defStd == nil {
				// Room for every round the stripe has seen, so a
				// site whose rounds arrive in order sizes once.
				o.defStd = make([]uint64, 0, (st.maxRound[ci]+1)*w)
			}
			o.defStd = append(o.defStd, make([]uint64, n-len(o.defStd))...)
		}
		a.standardSet(o.defStd[v.Round*w:(v.Round+1)*w], v.Features, nil)
	}
}

func (a *Aggregate) applyFailLocked(st *stripe, site int) {
	o := st.open[site]
	if o == nil {
		o = &openSite{site: site, unions: make([]measure.Bitset, len(a.cfg.Cases))}
		st.open[site] = o
	}
	o.failed = true
}

// foldLocked retires one site: its per-case unions become feature- and
// standard-site increments, its default set drives the block-pair,
// complexity, and new-standards tallies and is kept as the site's standard
// set. Must hold foldMu.
//
// The tallies mirror a scan of the full log exactly: union-based counts
// include partially measured (failed) sites, while complexity and
// new-standards-per-round count only measured sites, and every site with a
// default-case observation contributes to the block pairs — a case with no
// observations blocks all of the site's default standards, matching the
// "no features executed" definition.
//
// Each case's standard set is a bitset over the dense standard table, built
// in the aggregate's scratch while the union's features are counted, so a
// fold allocates nothing: the block pairs count the bits of default &^
// case, complexity is the default set's popcount, and a round's new
// standards are the popcount of round &^ seen, over the per-round standard
// sets the site built as its default-case visits arrived.
func (a *Aggregate) foldLocked(o *openSite) {
	measured := o.recorded && !o.failed
	if measured {
		a.measured++
	}

	w := a.stdWords
	for ci, u := range o.unions {
		if u == nil {
			continue
		}
		set := a.caseSets[ci*w : (ci+1)*w]
		a.standardSet(set, u, a.featureSites[ci])
		countBits(a.stdSites[ci], set)
	}

	if a.defIdx < 0 || o.unions[a.defIdx] == nil {
		return
	}
	def := a.caseSets[a.defIdx*w : (a.defIdx+1)*w]
	a.observed.Set(o.site)
	measure.Bitset(a.siteStd[o.site*w : (o.site+1)*w]).Or(def)
	for ci := range a.cfg.Cases {
		if ci == a.defIdx {
			continue // a site never blocks its own default set
		}
		if o.unions[ci] == nil {
			countBits(a.blockedPairs[ci], def)
			continue
		}
		set := a.caseSets[ci*w : (ci+1)*w]
		for i := range a.tmp {
			a.tmp[i] = def[i] &^ set[i]
		}
		countBits(a.blockedPairs[ci], a.tmp)
	}
	if !measured {
		return
	}
	a.complexity[popcount(def)]++
	clear(a.seen)
	for r := 0; r*w < len(o.defStd); r++ {
		newStd := 0
		for i, std := range o.defStd[r*w : (r+1)*w] {
			newStd += bits.OnesCount64(std &^ a.seen[i])
			a.seen[i] |= std
		}
		for len(a.nspSums) <= r {
			a.nspSums = append(a.nspSums, 0)
		}
		a.nspSums[r] += int64(newStd)
	}
	a.nspMeasured++
}

// standardSet overwrites set with the standards of u's features and, when
// featureSites is non-nil, counts one site for each of those features. It
// writes nothing else, so with a nil featureSites it needs no lock beyond
// the one guarding set.
func (a *Aggregate) standardSet(set []uint64, u measure.Bitset, featureSites []int) {
	clear(set)
	stdIdx := a.stdIdx
	u.ForEach(a.cfg.NumFeatures, func(id int) {
		if featureSites != nil {
			featureSites[id]++
		}
		s := stdIdx[id]
		set[s/64] |= 1 << (s % 64)
	})
}

// countBits adds one to counts[i] for every bit i set in set.
func countBits(counts []int, set []uint64) {
	for w, word := range set {
		for word != 0 {
			counts[w*64+bits.TrailingZeros64(word)]++
			word &= word - 1
		}
	}
}

func popcount(set []uint64) int {
	n := 0
	for _, word := range set {
		n += bits.OnesCount64(word)
	}
	return n
}

// countsByName expands a dense per-standard tally into the map the query
// API returns, leaving zero counts out.
func countsByName(names []standards.Abbrev, counts []int) map[standards.Abbrev]int {
	out := make(map[standards.Abbrev]int)
	for i, n := range counts {
		if n != 0 {
			out[names[i]] = n
		}
	}
	return out
}

// expandComplexity lists n once per site counted in complexity[n], so the
// series comes out ascending.
func expandComplexity(complexity []int) []int {
	var out []int
	for n, count := range complexity {
		for i := 0; i < count; i++ {
			out = append(out, n)
		}
	}
	return out
}

// OpenSites reports how many sites are mid-flight (visits recorded, not yet
// ended). It is zero after a completed run.
func (a *Aggregate) OpenSites() int {
	n := 0
	for si := range a.stripes {
		st := &a.stripes[si]
		st.mu.Lock()
		n += len(st.open)
		st.mu.Unlock()
	}
	return n
}

// NumFeatures returns the corpus size.
func (a *Aggregate) NumFeatures() int { return a.cfg.NumFeatures }

// NumSites returns the site-list size.
func (a *Aggregate) NumSites() int { return a.cfg.NumSites }

// Cases returns the tracked cases in canonical order.
func (a *Aggregate) Cases() []measure.Case {
	return append([]measure.Case(nil), a.cfg.Cases...)
}

// HasCase reports whether the aggregate tracks the case.
func (a *Aggregate) HasCase(c measure.Case) bool {
	_, ok := a.caseIdx[c]
	return ok
}

// FeatureSites returns, per feature ID, the number of sites on which the
// feature was observed at least once under the case — the same counts
// measure.Log.FeatureSites derives by rescanning. Untracked cases return
// all zeros, like a log the case never reached.
func (a *Aggregate) FeatureSites(c measure.Case) []int {
	out := make([]int, a.cfg.NumFeatures)
	ci, ok := a.caseIdx[c]
	if !ok {
		return out
	}
	a.foldMu.Lock()
	copy(out, a.featureSites[ci])
	a.foldMu.Unlock()
	return out
}

// StandardSites returns the number of sites using each standard under the
// case; standards no site used are left out.
func (a *Aggregate) StandardSites(c measure.Case) map[standards.Abbrev]int {
	ci, ok := a.caseIdx[c]
	if !ok {
		return make(map[standards.Abbrev]int)
	}
	a.foldMu.Lock()
	defer a.foldMu.Unlock()
	return countsByName(a.stdNames, a.stdSites[ci])
}

// BlockedSites returns, per standard, the number of sites that used the
// standard in the default case but executed none of its features under c —
// the block-rate numerator. A case the aggregate never tracked blocks
// everything (no feature of it ever executed), so the default-case counts
// are returned, matching a scan of a log without the case.
func (a *Aggregate) BlockedSites(c measure.Case) map[standards.Abbrev]int {
	ci, ok := a.caseIdx[c]
	if !ok {
		return a.StandardSites(measure.CaseDefault)
	}
	a.foldMu.Lock()
	defer a.foldMu.Unlock()
	return countsByName(a.stdNames, a.blockedPairs[ci])
}

// Complexity returns, per measured site with default-case observations, the
// number of standards the site used — ascending, since the aggregate folds
// sites in completion order and keeps only tallies. Every consumer of the
// series (CDFs, histograms) is order-insensitive.
func (a *Aggregate) Complexity() []int {
	a.foldMu.Lock()
	defer a.foldMu.Unlock()
	return expandComplexity(a.complexity)
}

// NewStandardsPerRound returns Table 3's series: the average number of
// standards first observed in each default-case round across measured
// sites, identical to a scan of the log (nil when the default case was
// never observed).
func (a *Aggregate) NewStandardsPerRound() []float64 {
	if a.defIdx < 0 {
		return nil
	}
	maxRound := -1
	for si := range a.stripes {
		st := &a.stripes[si]
		st.mu.Lock()
		if mr := st.maxRound[a.defIdx]; mr > maxRound {
			maxRound = mr
		}
		st.mu.Unlock()
	}
	if maxRound < 0 {
		return nil
	}
	out := make([]float64, maxRound+1)
	a.foldMu.Lock()
	for r := range out {
		if r < len(a.nspSums) {
			out[r] = float64(a.nspSums[r])
		}
	}
	measured := a.nspMeasured
	a.foldMu.Unlock()
	if measured == 0 {
		return out
	}
	for i := range out {
		out[i] /= float64(measured)
	}
	return out
}

// SiteStandards returns the site's default-case standard set, a bitset over
// the indices of StandardNames, and whether the default case observed the
// site at all: a static site is observed with an empty set, while a site
// the default case never reached, or one outside the site list, is not.
// The set is a copy, since a merge may still OR into the aggregate's.
func (a *Aggregate) SiteStandards(site int) (measure.Bitset, bool) {
	a.foldMu.Lock()
	defer a.foldMu.Unlock()
	if !a.observed.Get(site) {
		return nil, false
	}
	w := a.stdWords
	return slices.Clone(measure.Bitset(a.siteStd[site*w : (site+1)*w])), true
}

// StandardNames lists the distinct standards of Config.Standards in the
// dense-index order of SiteStandards' bits. The slice is shared: it never
// changes after New.
func (a *Aggregate) StandardNames() []standards.Abbrev { return a.stdNames }

// MeasuredCount returns how many sites produced measurements and never
// failed a visit.
func (a *Aggregate) MeasuredCount() int {
	a.foldMu.Lock()
	defer a.foldMu.Unlock()
	return a.measured
}

// Totals returns the survey-wide invocation and page-visit sums (Table 1).
func (a *Aggregate) Totals() (invocations, pages int64) {
	for si := range a.stripes {
		st := &a.stripes[si]
		st.mu.Lock()
		for ci := range a.cfg.Cases {
			invocations += st.invocations[ci]
			pages += st.pages[ci]
		}
		st.mu.Unlock()
	}
	return invocations, pages
}

// Merge folds other into a: the mergeable-aggregate operation behind
// distributed leases reporting home. Both aggregates must describe the
// same study (features, sites, cases, standards) and must have no open
// sites — end them first. Tallies add and per-site standard sets are ORed.
//
// Merges are serialized with each other and with snapshot publication, and
// every successful merge publishes a fresh Snapshot — so concurrent readers
// always observe the aggregate after a whole number of merges (a prefix of
// the committed leases), never a torn intermediate state.
func (a *Aggregate) Merge(other *Aggregate) error {
	a.pubMu.Lock()
	defer a.pubMu.Unlock()
	if other.cfg.NumFeatures != a.cfg.NumFeatures || other.cfg.NumSites != a.cfg.NumSites {
		return fmt.Errorf("stats: merging a %d-feature × %d-site aggregate into %d × %d",
			other.cfg.NumFeatures, other.cfg.NumSites, a.cfg.NumFeatures, a.cfg.NumSites)
	}
	if len(other.cfg.Cases) != len(a.cfg.Cases) {
		return fmt.Errorf("stats: merging aggregates with different case sets")
	}
	for ci, cs := range a.cfg.Cases {
		if other.cfg.Cases[ci] != cs {
			return fmt.Errorf("stats: merging aggregates with different case sets")
		}
	}
	if !slices.Equal(other.stdNames, a.stdNames) {
		// Per-standard tallies add by dense index, so the tables must
		// agree for the sum to mean anything.
		return fmt.Errorf("stats: merging aggregates with different standard tables (%d vs %d standards)",
			len(other.stdNames), len(a.stdNames))
	}
	if n := a.OpenSites(); n > 0 {
		return fmt.Errorf("stats: aggregate has %d open sites; end them before merging", n)
	}
	if n := other.OpenSites(); n > 0 {
		return fmt.Errorf("stats: merged aggregate has %d open sites; end them before merging", n)
	}

	// Stripe partial sums: stripe counts may differ, so other's totals
	// land in a's stripe 0 — queries sum or max across stripes anyway.
	st0 := &a.stripes[0]
	st0.mu.Lock()
	for si := range other.stripes {
		ost := &other.stripes[si]
		for ci := range a.cfg.Cases {
			st0.invocations[ci] += ost.invocations[ci]
			st0.pages[ci] += ost.pages[ci]
			if ost.maxRound[ci] > st0.maxRound[ci] {
				st0.maxRound[ci] = ost.maxRound[ci]
			}
		}
	}
	st0.mu.Unlock()

	a.foldMu.Lock()
	other.foldMu.Lock()
	for ci := range a.cfg.Cases {
		for id, n := range other.featureSites[ci] {
			a.featureSites[ci][id] += n
		}
		for std, n := range other.stdSites[ci] {
			a.stdSites[ci][std] += n
		}
		for std, n := range other.blockedPairs[ci] {
			a.blockedPairs[ci][std] += n
		}
	}
	for n, count := range other.complexity {
		a.complexity[n] += count
	}
	for len(a.nspSums) < len(other.nspSums) {
		a.nspSums = append(a.nspSums, 0)
	}
	for r, s := range other.nspSums {
		a.nspSums[r] += s
	}
	a.nspMeasured += other.nspMeasured
	a.measured += other.measured
	measure.Bitset(a.siteStd).Or(other.siteStd)
	a.observed.Or(other.observed)
	other.foldMu.Unlock()
	a.foldMu.Unlock()

	a.publishLocked()
	return nil
}
