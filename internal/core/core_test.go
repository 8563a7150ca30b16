package core

import (
	"bytes"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/logstore"
	"repro/internal/measure"
)

func smallStudy(t testing.TB, cfg Config) (*Study, *Results) {
	t.Helper()
	study, err := NewStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { study.Close() })
	results, err := study.RunSurvey()
	if err != nil {
		t.Fatal(err)
	}
	return study, results
}

func TestEndToEndReport(t *testing.T) {
	study, results := smallStudy(t, Config{Sites: 100, Seed: 21, HumanSample: 20})
	var buf bytes.Buffer
	if err := study.WriteReport(&buf, results); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"Figure 1:", "Table 1:", "Figure 3:", "Figure 4:", "Figure 5:",
		"Figure 6:", "Figure 7:", "Table 2:", "Table 3:", "Figure 8:",
		"Figure 9:", "Headline results",
		"Domains measured", "Feature invocations recorded",
		"never used (default)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
	// The paper-shaped anchors must appear.
	if !strings.Contains(out, "AJAX") || !strings.Contains(out, "DOM1") {
		t.Error("report missing standard abbreviations")
	}
}

func TestExternalValidationMostlyZero(t *testing.T) {
	study, results := smallStudy(t, Config{Sites: 100, Seed: 22, HumanSample: 40})
	// Concurrent renders share the study's one run of the human protocol.
	runs := make([][]int, 4)
	errs := make([]error, len(runs))
	var wg sync.WaitGroup
	for i := range runs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			runs[i], errs[i] = study.RunExternalValidation(results)
		}(i)
	}
	wg.Wait()
	for i := range runs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !slices.Equal(runs[i], runs[0]) {
			t.Fatalf("concurrent external validations disagree: %v vs %v", runs[i], runs[0])
		}
	}
	deltas := runs[0]
	zero := 0
	for _, d := range deltas {
		if d == 0 {
			zero++
		}
	}
	// Paper §6.2: in 83.7% of cases the human found nothing new.
	share := float64(zero) / float64(len(deltas))
	if share < 0.6 {
		t.Errorf("zero-delta share %.2f, paper 0.837", share)
	}
}

func TestHTTPModeMatchesDirect(t *testing.T) {
	if testing.Short() {
		t.Skip("HTTP crawl is slow")
	}
	cfg := Config{
		Sites: 25, Seed: 33, Rounds: 2,
		Cases:  []measure.Case{measure.CaseDefault, measure.CaseBlocking},
		Shards: 2,
	}
	_, direct := smallStudy(t, cfg)
	cfg.UseHTTP = true
	_, overHTTP := smallStudy(t, cfg)
	// The HTTP hop must be observationally transparent: the same log, byte
	// for byte, and the same Table 1 summary.
	var want, got bytes.Buffer
	if err := (logstore.CSV{}).Encode(&want, direct.Log); err != nil {
		t.Fatal(err)
	}
	if err := (logstore.CSV{}).Encode(&got, overHTTP.Log); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Errorf("log over HTTP differs from the direct crawl's (%d vs %d bytes)", got.Len(), want.Len())
	}
	if *overHTTP.Stats != *direct.Stats {
		t.Errorf("stats over HTTP = %+v, want %+v", *overHTTP.Stats, *direct.Stats)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := NewStudy(Config{}); err == nil {
		t.Fatal("zero-site config accepted")
	}
}

func TestConfigDefaults(t *testing.T) {
	study, err := NewStudy(Config{Sites: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer study.Close()
	if study.Cfg.Rounds != 5 || study.Cfg.HumanSample != 92 || study.Cfg.LogFormat != "csv" {
		t.Errorf("defaults not applied: %+v", study.Cfg)
	}
	if len(study.Cfg.Cases) != 4 {
		t.Errorf("default cases = %v", study.Cfg.Cases)
	}
	if study.Ranking() == nil || len(study.StandardsCatalog()) != 75 {
		t.Error("accessors broken")
	}
}
