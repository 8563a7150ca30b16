package main

import (
	"encoding/json"
	"testing"
	"time"
)

func TestSelfTimesAndCoverage(t *testing.T) {
	tr := newTracer()
	// root [0,100): children [10,40) and [30,60) overlap, [70,80) stands
	// alone, and [90,120) runs past the root's end.
	tr.spans = []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "child", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "child", Start: 30, End: 60},
		{ID: 4, Parent: 1, Name: "child", Start: 70, End: 80},
		{ID: 5, Parent: 1, Name: "child", Start: 90, End: 120},
		{ID: 6, Parent: 2, Name: "leaf", Start: 15, End: 20},
	}
	self := tr.selfTimes()
	if got, want := self["root"], time.Duration(100-(50+10+10)); got != want {
		t.Errorf("root self time %v, want %v", got, want)
	}
	if got, want := self["child"], time.Duration(30-5+30+10+30); got != want {
		t.Errorf("child self time %v, want %v", got, want)
	}
	if got, want := tr.coverage(1), 0.7; got != want {
		t.Errorf("coverage %v, want %v", got, want)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4) is
	// [2.75, 5.5, 8.25].
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
}

func TestCheckMetricsAgainstManifest(t *testing.T) {
	var spec benchmarkSpec
	manifest := `{"end_to_end": [{"name": "pass_s", "unit": "s"}], "per_layer": [{"name": "stats.merge_ms.p50", "unit": "ms"}]}`
	if err := json.Unmarshal([]byte(manifest), &spec); err != nil {
		t.Fatal(err)
	}
	if err := spec.checkMetrics(false, map[string]metric{"pass_s": {1, "s"}}); err != nil {
		t.Errorf("untraced run with the end-to-end metric: %v", err)
	}
	if err := spec.checkMetrics(true, map[string]metric{"stats.merge_ms.p50": {1, "ms"}}); err != nil {
		t.Errorf("traced run with the per-layer metric: %v", err)
	}
	for name, got := range map[string]map[string]metric{
		"missing":    {},
		"extra":      {"pass_s": {1, "s"}, "stats.merge_ms.p50": {1, "ms"}},
		"wrong unit": {"pass_s": {1, "ms"}},
	} {
		if spec.checkMetrics(false, got) == nil {
			t.Errorf("%s: accepted %v", name, got)
		}
	}
}
