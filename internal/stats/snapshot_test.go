package stats

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/measure"
)

// sourceSnap captures every Source query result so aggregate and snapshot
// answers can be compared wholesale.
func sourceSnap(s Source) snapshot {
	inv, pages := s.Totals()
	sites := make([]measure.Bitset, s.NumSites())
	for site := range sites {
		sites[site], _ = s.SiteStandards(site)
	}
	return snapshot{
		FeatureSitesDefault:  s.FeatureSites(measure.CaseDefault),
		FeatureSitesBlocking: s.FeatureSites(measure.CaseBlocking),
		StdSitesDefault:      s.StandardSites(measure.CaseDefault),
		StdSitesBlocking:     s.StandardSites(measure.CaseBlocking),
		BlockedBlocking:      s.BlockedSites(measure.CaseBlocking),
		BlockedUntracked:     s.BlockedSites(measure.CaseGhostery),
		Complexity:           s.Complexity(),
		NSP:                  s.NewStandardsPerRound(),
		Measured:             s.MeasuredCount(),
		Invocations:          inv,
		Pages:                pages,
		StandardNames:        s.StandardNames(),
		SiteStandards:        sites,
	}
}

// TestSnapshotMatchesAggregate requires a published snapshot to answer
// every Source query identically to the aggregate it was taken from —
// including the untracked-case edge behaviors — across several survey
// shapes.
func TestSnapshotMatchesAggregate(t *testing.T) {
	cases := []struct {
		name string
		seed int64
		feed bool
	}{
		{name: "empty", seed: 0, feed: false},
		{name: "survey-42", seed: 42, feed: true},
		{name: "survey-7", seed: 7, feed: true},
		{name: "survey-99", seed: 99, feed: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			agg, err := New(tConfig())
			if err != nil {
				t.Fatal(err)
			}
			if tc.feed {
				feed(t, agg, tSurvey(tc.seed))
			}
			s := agg.Publish()
			if got, want := sourceSnap(s), sourceSnap(agg); !reflect.DeepEqual(got, want) {
				t.Errorf("snapshot diverges from its aggregate:\n got %+v\nwant %+v", got, want)
			}
			if got, want := s.Cases(), agg.Cases(); !reflect.DeepEqual(got, want) {
				t.Errorf("snapshot Cases = %v, aggregate %v", got, want)
			}
			if s.NumFeatures() != agg.NumFeatures() || s.NumSites() != agg.NumSites() {
				t.Error("snapshot dimensions diverge from the aggregate")
			}
			if s.HasCase(measure.CaseDefault) != agg.HasCase(measure.CaseDefault) ||
				s.HasCase(measure.CaseGhostery) != agg.HasCase(measure.CaseGhostery) {
				t.Error("snapshot HasCase diverges from the aggregate")
			}
			if s.OpenSites() != agg.OpenSites() {
				t.Errorf("snapshot OpenSites = %d, aggregate %d", s.OpenSites(), agg.OpenSites())
			}
		})
	}
}

// TestSnapshotImmutable pins the RCU contract: a snapshot taken before
// more data arrives keeps answering with the old state, while a fresh
// snapshot sees the new state under a larger epoch.
func TestSnapshotImmutable(t *testing.T) {
	agg, err := New(tConfig())
	if err != nil {
		t.Fatal(err)
	}
	sites := tSurvey(42)
	feed(t, agg, sites[:tNumSites/2])
	old := agg.Publish()
	oldView := sourceSnap(old)

	feed(t, agg, sites[tNumSites/2:])
	fresh := agg.Publish()

	if got := sourceSnap(old); !reflect.DeepEqual(got, oldView) {
		t.Error("published snapshot changed after later writes")
	}
	if fresh.Epoch() <= old.Epoch() {
		t.Errorf("epoch did not advance: old %d, fresh %d", old.Epoch(), fresh.Epoch())
	}
	if got, want := sourceSnap(fresh), sourceSnap(agg); !reflect.DeepEqual(got, want) {
		t.Error("fresh snapshot diverges from the aggregate")
	}
}

// TestSnapshotEpochSequence pins the epoch lifecycle: 0 before any
// publication, lazily published by the first Snapshot call, cached until
// the next publication, and bumped by Publish and by Merge.
func TestSnapshotEpochSequence(t *testing.T) {
	agg, err := New(tConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got := agg.Epoch(); got != 0 {
		t.Fatalf("Epoch before any publication = %d, want 0", got)
	}
	s1 := agg.Snapshot()
	if s1.Epoch() != 1 {
		t.Fatalf("first lazy publication has epoch %d, want 1", s1.Epoch())
	}
	if s2 := agg.Snapshot(); s2 != s1 {
		t.Error("Snapshot republished instead of returning the cached snapshot")
	}
	if got := agg.Publish().Epoch(); got != 2 {
		t.Errorf("explicit Publish has epoch %d, want 2", got)
	}

	other, err := New(tConfig())
	if err != nil {
		t.Fatal(err)
	}
	feed(t, other, tSurvey(3))
	if err := agg.Merge(other); err != nil {
		t.Fatal(err)
	}
	if got := agg.Epoch(); got != 3 {
		t.Errorf("epoch after merge = %d, want 3 (Merge publishes)", got)
	}
	if got, want := sourceSnap(agg.Snapshot()), sourceSnap(agg); !reflect.DeepEqual(got, want) {
		t.Error("post-merge snapshot diverges from the aggregate")
	}
}

// TestFromLogMatchesLive replays a measurement log through FromLog and
// requires the result to answer every aggregate query identically to the
// live aggregate that saw the same survey.
func TestFromLogMatchesLive(t *testing.T) {
	sites := tSurvey(42)
	live, err := New(tConfig())
	if err != nil {
		t.Fatal(err)
	}
	feed(t, live, sites)

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

	replayed, err := FromLog(log, tStandards(), tConfig().Cases)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := sourceSnap(replayed), sourceSnap(live); !reflect.DeepEqual(got, want) {
		t.Errorf("FromLog diverges from the live aggregate:\n got %+v\nwant %+v", got, want)
	}
	if n := replayed.OpenSites(); n != 0 {
		t.Errorf("FromLog left %d open sites", n)
	}
}

func TestFromLogValidation(t *testing.T) {
	log := measure.NewLog(tNumFeatures, make([]string, tNumSites))
	if _, err := FromLog(log, tStandards()[:10], tConfig().Cases); err == nil {
		t.Error("FromLog accepted a short standards mapping")
	}
	log.EnsureRound(measure.CaseGhostery, 0)
	if _, err := FromLog(log, tStandards(), tConfig().Cases); err == nil {
		t.Error("FromLog accepted a log with a case outside the aggregate's set")
	}
}

// leaseUnit builds one lease-shaped contribution: a single measured site
// with a fixed, recognizable tally (feature 0 under both cases, 10
// invocations, 2 pages). Merging k of them over disjoint sites yields
// exactly k of everything — which is what lets the race test below detect
// torn snapshots arithmetically.
func leaseUnit(t testing.TB, site int) *Aggregate {
	t.Helper()
	a, err := New(tConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range tConfig().Cases {
		sf := measure.NewBitset(tNumFeatures)
		sf.Set(0)
		if err := a.AddVisit(Visit{Case: c, Round: 0, Site: site, Features: sf, Invocations: 5, Pages: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.EndSite(site); err != nil {
		t.Fatal(err)
	}
	return a
}

// TestConcurrentMergeSnapshotPrefix is the torn-read sweep (run it with
// -race): writers concurrently merge identical single-site leases into one
// aggregate while readers hammer Snapshot. The publication invariant says
// every snapshot equals some prefix of completed merges, so every tally a
// reader sees must be exactly k× the per-lease contribution for a single
// integer k — across invocations, pages, measured count, feature counts,
// and standard counts at once. Any torn state breaks the arithmetic.
func TestConcurrentMergeSnapshotPrefix(t *testing.T) {
	const (
		writers = 4
		leases  = 32 // per writer
		readers = 4
	)
	target, err := New(tConfig())
	if err != nil {
		t.Fatal(err)
	}
	target.Publish()

	// Pre-build the leases so writer goroutines only merge.
	units := make(chan *Aggregate, writers*leases)
	for i := 0; i < writers*leases; i++ {
		units <- leaseUnit(t, i%tNumSites)
	}
	close(units)

	total := writers * leases
	var writeWg, readWg sync.WaitGroup
	stop := make(chan struct{})

	for w := 0; w < writers; w++ {
		writeWg.Add(1)
		go func() {
			defer writeWg.Done()
			for u := range units {
				if err := target.Merge(u); err != nil {
					t.Errorf("merge: %v", err)
					return
				}
			}
		}()
	}

	for r := 0; r < readers; r++ {
		readWg.Add(1)
		go func() {
			defer readWg.Done()
			var lastEpoch uint64
			var lastK int64
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := target.Snapshot()
				if e := s.Epoch(); e < lastEpoch {
					t.Errorf("epoch went backwards: %d after %d", e, lastEpoch)
					return
				} else {
					lastEpoch = e
				}
				inv, pages := s.Totals()
				k := inv / 10
				if inv%10 != 0 || k < 0 || k > int64(total) {
					t.Errorf("torn snapshot: invocations %d is not a whole number of leases", inv)
					return
				}
				if k < lastK {
					t.Errorf("snapshot went backwards: %d leases after %d", k, lastK)
					return
				}
				lastK = k
				if pages != 2*k {
					t.Errorf("torn snapshot: %d leases worth of invocations but %d pages (want %d)", k, pages, 2*k)
					return
				}
				if m := int64(s.MeasuredCount()); m != k {
					t.Errorf("torn snapshot: %d leases merged but MeasuredCount %d", k, m)
					return
				}
				for _, c := range tConfig().Cases {
					if f0 := int64(s.FeatureSites(c)[0]); f0 != k {
						t.Errorf("torn snapshot: %d leases merged but feature 0 on %d sites under %s", k, f0, c)
						return
					}
					std := s.StandardSites(c)
					if len(std) > 1 {
						t.Errorf("torn snapshot: %d standards tallied, want at most 1", len(std))
						return
					}
					for _, n := range std {
						if int64(n) != k {
							t.Errorf("torn snapshot: %d leases merged but standard on %d sites", k, n)
							return
						}
					}
				}
			}
		}()
	}

	writeWg.Wait()
	close(stop)
	readWg.Wait()

	final := target.Snapshot()
	inv, pages := final.Totals()
	if inv != int64(total*10) || pages != int64(total*2) {
		t.Errorf("final totals (%d, %d), want (%d, %d)", inv, pages, total*10, total*2)
	}
	if got := final.MeasuredCount(); got != total {
		t.Errorf("final MeasuredCount %d, want %d", got, total)
	}
}
