package core

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/analysis"
	"repro/internal/logstore"
	"repro/internal/measure"
)

// TestSurveyLogRoundTrip exercises the cmd/crawl → cmd/report handoff for
// every registered codec: a survey log serialized and read back (via
// format auto-detection, as cmd/report does) must yield identical analysis
// results.
func TestSurveyLogRoundTrip(t *testing.T) {
	study, results := smallStudy(t, Config{
		Sites: 60, Seed: 31, Rounds: 2,
		Cases:    []measure.Case{measure.CaseDefault, measure.CaseBlocking},
		SpillDir: t.TempDir(),
	})
	l, err := logstore.ReadSpillFiles(results.Spills...)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range logstore.Names() {
		t.Run(name, func(t *testing.T) {
			codec, err := logstore.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			testLogRoundTrip(t, study, results, l, codec)
		})
	}
}

func testLogRoundTrip(t *testing.T, study *Study, results *Results, l *measure.Log, codec logstore.Codec) {
	var buf bytes.Buffer
	if err := codec.Encode(&buf, l); err != nil {
		t.Fatal(err)
	}
	restored, err := logstore.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(restored, l) {
		t.Error("restored survey log not deep-equal to the original")
	}

	a1 := results.Analysis
	a2 := analysis.New(restored, study.Registry)

	s1 := a1.StandardSites(measure.CaseDefault)
	s2 := a2.StandardSites(measure.CaseDefault)
	for std, n := range s1 {
		if s2[std] != n {
			t.Errorf("standard %s: %d sites direct, %d via CSV", std, n, s2[std])
		}
	}

	b1 := a1.Bands(measure.CaseDefault)
	b2 := a2.Bands(measure.CaseDefault)
	if b1 != b2 {
		t.Errorf("bands differ: %+v vs %+v", b1, b2)
	}

	r1 := a1.BlockRates(measure.CaseBlocking)
	r2 := a2.BlockRates(measure.CaseBlocking)
	for std, br := range r1 {
		if r2[std] != br {
			t.Errorf("block rate %s differs across CSV round trip", std)
		}
	}

	t3a := a1.NewStandardsPerRound()
	t3b := a2.NewStandardsPerRound()
	for i := range t3a {
		if t3a[i] != t3b[i] {
			t.Errorf("table 3 round %d differs: %v vs %v", i, t3a, t3b)
		}
	}
}
