package main

import (
	"bytes"
	"net/http"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/logstore"
	"repro/internal/measure"
	"repro/internal/standards"
	"repro/internal/stats"
	"repro/internal/synthweb"
)

// The checks must pass on the program's real outputs and fail on an answer
// corrupted in each way the benchmark guards against: one visit record
// dropped, one feature bit flipped, a stale epoch's body served.

func testStudy(t *testing.T, sites int, cfg core.Config) (*core.Study, *truth) {
	t.Helper()
	cfg.Sites, cfg.Seed, cfg.Rounds, cfg.Cases = sites, 7, crawlRounds, measure.AllCases()
	study, err := core.NewStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { study.Close() })
	return study, newTruth(study.Web, study.Cfg.Cases, study.Cfg.Rounds)
}

// crawled runs a real spill-only survey and returns its records and
// aggregate.
func crawled(t *testing.T) (*truth, []logstore.SpillRecord, stats.Source) {
	t.Helper()
	dir := t.TempDir()
	study, tr := testStudy(t, 40, core.Config{Shards: crawlShards, ShardWorkers: crawlWorkers, SpillOnly: true, SpillDir: dir})
	res, err := study.RunSurvey()
	if err != nil {
		t.Fatal(err)
	}
	recs, err := readSpillDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	return tr, recs, res.Agg
}

func firstVisit(t *testing.T, recs []logstore.SpillRecord, keep func(logstore.Observation) bool) int {
	t.Helper()
	for i, r := range recs {
		if r.Kind == logstore.SpillObservation && keep(r.Obs) {
			return i
		}
	}
	t.Fatal("no matching visit record")
	return -1
}

// corrupt copies the records, giving record i its own copy of its bitset.
func corrupt(recs []logstore.SpillRecord, i int) []logstore.SpillRecord {
	out := append([]logstore.SpillRecord(nil), recs...)
	out[i].Obs.Features = out[i].Obs.Features.Clone()
	return out
}

func TestCrawlChecks(t *testing.T) {
	tr, recs, agg := crawled(t)
	want := tr.measurableCount()
	if err := checkCrawl(tr, recs, agg, want); err != nil {
		t.Fatalf("check fails on the program's own output: %v", err)
	}
	if err := checkCrawl(tr, recs, agg, want+1); err == nil {
		t.Error("a measured-domain count off by one passed")
	}

	i := firstVisit(t, recs, func(o logstore.Observation) bool { return o.Features.Any() })
	dropped := append(append([]logstore.SpillRecord(nil), recs[:i]...), recs[i+1:]...)
	if err := checkCrawl(tr, dropped, agg, want); err == nil {
		t.Error("a dropped visit record passed")
	}

	// A bit set outside the site's assignments.
	site := recs[i].Obs.Site
	assigned := tr.assigned(site)
	unassigned := 0
	for _, ok := assigned[unassigned]; ok; _, ok = assigned[unassigned] {
		unassigned++
	}
	flipped := corrupt(recs, i)
	flipped[i].Obs.Features.Set(unassigned)
	if err := checkCrawl(tr, flipped, agg, want); err == nil {
		t.Error("a feature outside the site's assignments passed")
	}

	// A bit of a blocked party set under a blocking configuration.
	j := firstVisit(t, recs, func(o logstore.Observation) bool {
		return o.Case == measure.CaseBlocking && thirdPartyFeature(tr, o.Site) >= 0
	})
	blocked := corrupt(recs, j)
	blocked[j].Obs.Features.Set(thirdPartyFeature(tr, recs[j].Obs.Site))
	if err := checkCrawl(tr, blocked, agg, want); err == nil {
		t.Error("a blocked party's feature measured under blocking passed")
	}
}

// A survey that does less work than asked records less, and its aggregate
// agrees with its records: the checks must still catch it. Each corrupted
// set of records is folded into an aggregate the way the program folds a
// spill.
func TestCrawlChecksCatchLessWork(t *testing.T) {
	tr, recs, _ := crawled(t)
	want := tr.measurableCount()

	// A whole round skipped.
	var skipped []logstore.SpillRecord
	for _, r := range recs {
		if r.Kind != logstore.SpillObservation || r.Obs.Round != crawlRounds-1 {
			skipped = append(skipped, r)
		}
	}
	err := checkCrawl(tr, skipped, foldRecords(t, tr, skipped), want)
	if err == nil || !strings.Contains(err.Error(), "visits recorded") {
		t.Errorf("a skipped round: got %v, want a visit-count failure", err)
	}

	// A standard never found by default, as when the BFS stops short of
	// the pages or the events that reach it.
	std := tr.stdOf[0]
	for _, s := range standards.Catalog() {
		if tr.web.GroundTruthSites(s.Abbrev) > tr.web.GroundTruthSites(std) {
			std = s.Abbrev
		}
	}
	missed := append([]logstore.SpillRecord(nil), recs...)
	for k, r := range missed {
		if r.Kind != logstore.SpillObservation || r.Obs.Case != measure.CaseDefault {
			continue
		}
		kept := measure.NewBitset(tr.numFeatures)
		r.Obs.Features.ForEach(tr.numFeatures, func(id int) {
			if tr.stdOf[id] != std {
				kept.Set(id)
			}
		})
		missed[k].Obs.Features = kept
	}
	err = checkCrawl(tr, missed, foldRecords(t, tr, missed), want)
	if err == nil || !strings.Contains(err.Error(), "ground truth") {
		t.Errorf("standard %s never found: got %v, want a ground-truth failure", std, err)
	}
}

// thirdPartyFeature returns a feature the web assigns to the site under a
// third party, or -1.
func thirdPartyFeature(tr *truth, site int) int {
	for id, p := range tr.assigned(site) {
		if p != synthweb.PartyFirst {
			return id
		}
	}
	return -1
}

// foldRecords writes spill records to a spill stream and folds it the way
// the coordinator folds a lease.
func foldRecords(t *testing.T, tr *truth, recs []logstore.SpillRecord) stats.Source {
	t.Helper()
	var buf bytes.Buffer
	w, err := logstore.NewWriter(&buf, tr.numFeatures, tr.domains)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		switch r.Kind {
		case logstore.SpillObservation:
			err = w.Append(r.Obs)
		case logstore.SpillFailure:
			err = w.Fail(r.Site)
		case logstore.SpillSiteEnd:
			err = w.EndSite(r.Site)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return foldSpill(t, tr, w, &buf)
}

// generatedAggregate folds a generated survey's spill stream the way the
// coordinator folds a lease.
func generatedAggregate(t *testing.T, tr *truth, obs []logstore.Observation, sites []int) stats.Source {
	t.Helper()
	var buf bytes.Buffer
	w, err := logstore.NewWriter(&buf, tr.numFeatures, tr.domains)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.writeSpill(w, obs, sites); err != nil {
		t.Fatal(err)
	}
	return foldSpill(t, tr, w, &buf)
}

// foldSpill closes a spill writer over buf and folds the stream with
// stats.FromSpillStream.
func foldSpill(t *testing.T, tr *truth, w *logstore.Writer, buf *bytes.Buffer) stats.Source {
	t.Helper()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	s, err := logstore.OpenSpills(buf)
	if err != nil {
		t.Fatal(err)
	}
	agg, err := stats.FromSpillStream(tr.stdOf, tr.cases, s)
	if err != nil {
		t.Fatal(err)
	}
	return agg
}

func TestTallyChecks(t *testing.T) {
	_, tr := testStudy(t, 60, core.Config{})
	const seed = 11
	want := tr.expected(seed)
	sites := make([]int, len(tr.domains))
	for i := range sites {
		sites[i] = i
	}
	obs := tr.observations(seed, sites)
	if err := tr.compareSource("generated", want, generatedAggregate(t, tr, obs, sites)); err != nil {
		t.Fatalf("check fails on the program's own output: %v", err)
	}
	log := tr.buildLog(obs)
	a := analysis.New(log, tr.web.Registry)
	inv, pages := logTotals(log)
	if err := tr.compare("log", want, a, log.MeasuredCount(), inv, pages); err != nil {
		t.Fatalf("check fails on a cold analysis of the log: %v", err)
	}

	dropped := append(append([]logstore.Observation(nil), obs[:3]...), obs[4:]...)
	if err := tr.compareSource("dropped", want, generatedAggregate(t, tr, dropped, sites)); err == nil {
		t.Error("a dropped visit record passed")
	}

	// Flip on a bit the site is never assigned: that feature's site count
	// moves by one.
	flipped := append([]logstore.Observation(nil), obs...)
	flipped[0].Features = flipped[0].Features.Clone()
	assigned := tr.assigned(flipped[0].Site)
	unassigned := 0
	for _, ok := assigned[unassigned]; ok; _, ok = assigned[unassigned] {
		unassigned++
	}
	flipped[0].Features.Set(unassigned)
	if err := tr.compareSource("flipped", want, generatedAggregate(t, tr, flipped, sites)); err == nil {
		t.Error("a flipped feature bit passed")
	}
}

func TestLiveChecks(t *testing.T) {
	c := newLiveChecker()
	fresh := &answer{client: 0, path: "/api/standards", status: http.StatusOK, epoch: 3, body: []byte("epoch 3")}
	if err := c.observe(fresh); err != nil {
		t.Fatalf("a fresh answer failed: %v", err)
	}
	same := &answer{client: 1, path: "/api/standards", status: http.StatusOK, epoch: 3, body: []byte("epoch 3")}
	if err := c.observe(same); err != nil {
		t.Fatalf("a second reader of the same body failed: %v", err)
	}
	if err := c.observe(&answer{client: 1, path: "/api/standards", status: http.StatusNotModified, epoch: 3}); err != nil {
		t.Fatalf("a revalidation failed: %v", err)
	}
	stale := &answer{client: 1, path: "/api/standards", status: http.StatusOK, epoch: 3, body: []byte("epoch 2")}
	if err := c.observe(stale); err == nil {
		t.Error("a stale epoch's body served under the current epoch passed")
	}
	back := &answer{client: 0, path: "/api/standards", status: http.StatusOK, epoch: 2, body: []byte("epoch 2")}
	if err := c.observe(back); err == nil {
		t.Error("a stale epoch served after a newer one passed")
	}
	if err := c.observe(&answer{client: 0, path: "/report", status: http.StatusServiceUnavailable, epoch: 3}); err == nil {
		t.Error("a 503 passed")
	}
	if err := checkRenders(3*liveRenderURLs, 3); err != nil {
		t.Errorf("one render per URL and epoch failed: %v", err)
	}
	if err := checkRenders(3*liveRenderURLs+1, 3); err == nil {
		t.Error("an extra render passed")
	}
}

// TestSpillRoundTrip checks that a generated survey written as a spill
// reads back whole.
func TestSpillRoundTrip(t *testing.T) {
	dir := t.TempDir()
	_, tr := testStudy(t, 20, core.Config{})
	sites := []int{0, 1, 2, 3}
	obs := tr.observations(5, sites)
	w, err := logstore.CreateAtomic(filepath.Join(dir, "a.spill"), tr.numFeatures, tr.domains)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.writeSpill(w, obs, sites); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := readSpillDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := countVisits(recs); got != len(obs) {
		t.Fatalf("read %d visits back, wrote %d", got, len(obs))
	}
}
