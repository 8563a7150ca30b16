package crawler

import (
	"math/rand"
	"net/url"
	"strings"
	"testing"

	"repro/internal/gremlins"
	"repro/internal/measure"
	"repro/internal/synthweb"
	"repro/internal/webapi"
	"repro/internal/webidl"
)

var tableWeb *synthweb.Web

// urlsWeb is the 64-site web the URL-table tests crawl.
func urlsWeb(t *testing.T) *synthweb.Web {
	t.Helper()
	if tableWeb == nil {
		reg, err := webidl.Generate(1)
		if err != nil {
			t.Fatal(err)
		}
		if tableWeb, err = synthweb.Generate(reg, synthweb.Config{Sites: 64, Seed: 5}); err != nil {
			t.Fatal(err)
		}
	}
	return tableWeb
}

// refLocalNavAttempts is the body of the retired Page.LocalNavAttemptsInto,
// the reference for urlTable.candidates: the distinct clean forms
// (scheme://host/path) of the navigation attempts that parse and that
// sameSite keeps, in first-seen order.
func refLocalNavAttempts(navs []string, sameSite func(host string) bool) []string {
	seen, rawSeen := map[string]bool{}, map[string]bool{}
	var out []string
	for _, raw := range navs {
		if rawSeen[raw] {
			continue
		}
		rawSeen[raw] = true
		var clean, host string
		if u, err := url.Parse(raw); err == nil {
			clean, host = u.Scheme+"://"+u.Host+u.Path, u.Hostname()
		}
		if clean == "" || !sameSite(host) {
			continue
		}
		if seen[clean] {
			continue
		}
		seen[clean] = true
		out = append(out, clean)
	}
	return out
}

// refDirPattern is the retired dirPattern, the reference for urlTable.dir:
// a URL's directory structure, the path with the final segment dropped.
func refDirPattern(rawURL string) string {
	u, err := url.Parse(rawURL)
	if err != nil {
		return rawURL
	}
	path := u.Path
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		path = path[:i]
	}
	return u.Hostname() + path
}

// refDirPatterns is the retired Visitor.dirPattern memo over refDirPattern.
type refDirPatterns map[string]string

func (m refDirPatterns) get(rawURL string) string {
	if p, ok := m[rawURL]; ok {
		return p
	}
	if len(m) > 8192 {
		clear(m)
	}
	p := refDirPattern(rawURL)
	m[rawURL] = p
	return p
}

// TestURLTableMatchesReference monkey-tests every page the test web's
// sites link to, in every case and with credentials off and on, and holds
// each page's candidate list from the site's URL table to the reference's,
// in order. Two candidates must share a directory index exactly when their
// reference patterns are equal.
func TestURLTableMatchesReference(t *testing.T) {
	web := urlsWeb(t)
	for _, creds := range []bool{false, true} {
		for _, cs := range measure.AllCases() {
			cfg := DefaultConfig(3)
			cfg.WithCredentials = creds
			w, err := New(web, webapi.NewBindings(web.Registry), cfg).NewVisitor(cs)
			if err != nil {
				t.Fatal(err)
			}
			w.ensureScratch()
			rng := rand.New(rand.NewSource(1))
			var table urlTable
			pages := 0
			for _, site := range web.Sites[:24] {
				sameSite := func(host string) bool { return web.Ranking.SameSite(host, site.Domain) }
				table.begin(web.Ranking, site.Domain)
				dirs := refDirPatterns{}
				dirOf, indexOf := map[int32]string{}, map[string]int32{}
				queue := []string{"http://" + site.Domain + "/"}
				queued := map[string]bool{queue[0]: true}
				for len(queue) > 0 {
					u := queue[0]
					queue = queue[1:]
					if creds {
						u = authenticate(u)
					}
					page, err := w.browser.Load(u)
					if err != nil {
						continue
					}
					pages++
					w.horde.Unleash(page, rng)
					want := refLocalNavAttempts(page.NavAttempts, sameSite)
					ids := table.candidates(page.NavAttempts, nil)
					w.browser.Release(page)
					got := make([]string, len(ids))
					for i, id := range ids {
						got[i] = table.urls[id].url
					}
					if strings.Join(got, " ") != strings.Join(want, " ") {
						t.Fatalf("creds=%t %s %s: table candidates %q, reference %q", creds, cs, u, got, want)
					}
					for i, id := range ids {
						p, d := dirs.get(want[i]), table.dir(id)
						if q, ok := dirOf[d]; ok && q != p {
							t.Fatalf("creds=%t %s: %q (pattern %q) shares directory index %d with pattern %q", creds, cs, want[i], p, d, q)
						}
						if e, ok := indexOf[p]; ok && e != d {
							t.Fatalf("creds=%t %s: pattern %q has directory indexes %d and %d", creds, cs, p, e, d)
						}
						dirOf[d], indexOf[p] = p, d
						if !queued[want[i]] {
							queued[want[i]] = true
							queue = append(queue, want[i])
						}
					}
				}
			}
			if pages < 100 {
				t.Fatalf("creds=%t %s: only %d pages loaded", creds, cs, pages)
			}
		}
	}
}

// TestURLTableStaysPerSite crawls 60 sites on one visitor and requires its
// table to hold no more entries than after the largest single site, each
// crawled on a fresh visitor: the table is scoped to the site, not
// appended to for the survey.
func TestURLTableStaysPerSite(t *testing.T) {
	web := urlsWeb(t)
	cfg := DefaultConfig(3)
	c := New(web, webapi.NewBindings(web.Registry), cfg)
	crawl := func(w *Visitor, site *synthweb.Site) {
		for round := 0; round < 2; round++ {
			w.CrawlOnce(site, VisitSeed(cfg.Seed, site.Index, measure.CaseDefault, round))
		}
	}
	used, err := c.NewVisitor(measure.CaseDefault)
	if err != nil {
		t.Fatal(err)
	}
	largest := 0
	for _, site := range web.Sites[:60] {
		crawl(used, site)
		fresh, err := c.NewVisitor(measure.CaseDefault)
		if err != nil {
			t.Fatal(err)
		}
		crawl(fresh, site)
		largest = max(largest, len(fresh.urls.urls))
	}
	if n := len(used.urls.urls); n == 0 || n > largest {
		t.Errorf("after 60 sites the table holds %d URLs; the largest site alone needs %d", n, largest)
	}
	if len(used.urls.ids) != len(used.urls.urls) {
		t.Errorf("the table indexes %d URLs but holds %d", len(used.urls.ids), len(used.urls.urls))
	}
}

// TestURLTableFilterAndDedupe clicks every anchor of a home page twice and
// holds the table's candidates to no duplicates, no external URL, and at
// least one URL.
func TestURLTableFilterAndDedupe(t *testing.T) {
	web := urlsWeb(t)
	w, err := New(web, webapi.NewBindings(web.Registry), DefaultConfig(3)).NewVisitor(measure.CaseDefault)
	if err != nil {
		t.Fatal(err)
	}
	site := web.Sites[0]
	for _, s := range web.Sites {
		if s.Failure == synthweb.FailNone {
			site = s
			break
		}
	}
	page, err := w.browser.Load("http://" + site.Domain + "/")
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range page.DOM.ElementsByTag("a") {
		page.Click(a)
		page.Click(a) // duplicate clicks
	}
	gremlins.Default().Unleash(page, rand.New(rand.NewSource(1)))
	var table urlTable
	table.begin(web.Ranking, site.Domain)
	ids := table.candidates(page.NavAttempts, nil)
	seen := map[string]bool{}
	for _, id := range ids {
		u := table.urls[id].url
		if seen[u] {
			t.Fatalf("duplicate local nav %q", u)
		}
		seen[u] = true
		if strings.Contains(u, "partner-offers") || strings.Contains(u, "adnet-") {
			t.Fatalf("external URL %q leaked into local navs", u)
		}
	}
	if len(ids) == 0 {
		t.Fatal("no local navs after clicking all anchors")
	}
}
