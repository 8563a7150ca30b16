package report

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/crawler"
	"repro/internal/cve"
	"repro/internal/firefoxhist"
	"repro/internal/measure"
	"repro/internal/pipeline"
	"repro/internal/synthweb"
	"repro/internal/webapi"
	"repro/internal/webidl"
)

var (
	sharedAna  *analysis.Analysis
	sharedWeb  *synthweb.Web
	sharedStat *crawler.Stats
	sharedHist *firefoxhist.History
)

func surveyed(t testing.TB) (*analysis.Analysis, *synthweb.Web, *crawler.Stats) {
	t.Helper()
	if sharedAna != nil {
		return sharedAna, sharedWeb, sharedStat
	}
	reg, err := webidl.Generate(1)
	if err != nil {
		t.Fatal(err)
	}
	web, err := synthweb.Generate(reg, synthweb.Config{Sites: 80, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	res, err := pipeline.New(web, webapi.NewBindings(reg), pipeline.Config{Crawl: crawler.DefaultConfig(5)}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	sharedAna = analysis.New(res.Log, reg)
	sharedWeb = web
	sharedStat = res.Stats
	sharedHist = firefoxhist.New(reg)
	return sharedAna, sharedWeb, sharedStat
}

func render(t *testing.T, f func(*bytes.Buffer)) string {
	t.Helper()
	var buf bytes.Buffer
	f(&buf)
	if buf.Len() == 0 {
		t.Fatal("renderer produced no output")
	}
	return buf.String()
}

func TestFigure1(t *testing.T) {
	out := render(t, func(b *bytes.Buffer) { Figure1(b) })
	for _, want := range []string{"2009", "2015", "Chrome", "Firefox", "Blink", "8.8 MLoC"} {
		if !strings.Contains(out, want) {
			t.Errorf("figure 1 missing %q", want)
		}
	}
}

func TestTable1(t *testing.T) {
	_, _, stats := surveyed(t)
	out := render(t, func(b *bytes.Buffer) { Table1(b, stats) })
	for _, want := range []string{"Domains measured", "Web pages visited", "Feature invocations recorded"} {
		if !strings.Contains(out, want) {
			t.Errorf("table 1 missing %q", want)
		}
	}
}

func TestFigure3Through8(t *testing.T) {
	a, web, _ := surveyed(t)
	checks := []struct {
		name string
		fn   func(*bytes.Buffer)
		want []string
	}{
		{"fig3", func(b *bytes.Buffer) { Figure3(b, a) }, []string{"portion of all standards"}},
		{"fig4", func(b *bytes.Buffer) { Figure4(b, a) }, []string{"blockrate", "DOM1"}},
		{"fig5", func(b *bytes.Buffer) { Figure5(b, a.VisitWeightedPopularity(web.Ranking)) }, []string{"site-frac", "visit-frac"}},
		{"fig6", func(b *bytes.Buffer) { Figure6(b, a.AgeSeries(sharedHist)) }, []string{"introduced", "AJAX", "block rate"}},
		{"fig7", func(b *bytes.Buffer) { Figure7(b, a.AdVsTrackerRates()) }, []string{"ad-rate", "tracker-rate"}},
		{"fig8", func(b *bytes.Buffer) { Figure8(b, a.Complexity()) }, []string{"standards", "%"}},
	}
	for _, c := range checks {
		out := render(t, c.fn)
		for _, w := range c.want {
			if !strings.Contains(out, w) {
				t.Errorf("%s missing %q:\n%s", c.name, w, out[:min(len(out), 400)])
			}
		}
	}
}

func TestTable2And3(t *testing.T) {
	a, _, _ := surveyed(t)
	db := cve.Generate(1)
	out := render(t, func(b *bytes.Buffer) { Table2(b, a.Table2(db)) })
	for _, w := range []string{"HTML: Canvas", "H-C", "#CVEs"} {
		if !strings.Contains(out, w) {
			t.Errorf("table 2 missing %q", w)
		}
	}
	out = render(t, func(b *bytes.Buffer) { Table3(b, a.NewStandardsPerRound()) })
	if !strings.Contains(out, "Round #") || !strings.Contains(out, "2") {
		t.Errorf("table 3 malformed:\n%s", out)
	}
	// The paper's table starts at round 2.
	if strings.Contains(out, "\n1 ") {
		t.Error("table 3 should not list round 1")
	}
}

func TestFigure9(t *testing.T) {
	out := render(t, func(b *bytes.Buffer) { Figure9(b, []int{0, 0, 0, 1, 2, 0}) })
	if !strings.Contains(out, "number of domains") {
		t.Errorf("figure 9 malformed:\n%s", out)
	}
	if !strings.Contains(out, "66.7%") {
		t.Errorf("figure 9 zero-share wrong:\n%s", out)
	}
}

func TestHeadlines(t *testing.T) {
	a, _, _ := surveyed(t)
	out := render(t, func(b *bytes.Buffer) { Headlines(b, a, cve.Generate(1)) })
	for _, w := range []string{"paper: 689", "paper: 416", "paper: 111", "standards observed"} {
		if !strings.Contains(out, w) {
			t.Errorf("headlines missing %q", w)
		}
	}
	// The blocking line must exist.
	if !strings.Contains(out, string(measure.CaseBlocking)) {
		t.Errorf("headlines missing blocking case:\n%s", out)
	}
}

func TestTruncate(t *testing.T) {
	if got := truncate("short", 10); got != "short" {
		t.Errorf("truncate(short) = %q", got)
	}
	if got := truncate("averyveryverylongname", 10); got != "averyve..." || len(got) != 10 {
		t.Errorf("truncate long = %q", got)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
