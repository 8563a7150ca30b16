package browser

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/blocking"
	"repro/internal/dom"
	"repro/internal/synthweb"
	"repro/internal/webapi"
	"repro/internal/webidl"
	"repro/internal/webserver"
)

// testEnv is a tiny generated web plus bindings shared by the package tests.
type testEnv struct {
	web  *synthweb.Web
	bind *webapi.Bindings
	site *synthweb.Site
}

var sharedEnv *testEnv

func env(t testing.TB) *testEnv {
	t.Helper()
	if sharedEnv != nil {
		return sharedEnv
	}
	reg, err := webidl.Generate(1)
	if err != nil {
		t.Fatal(err)
	}
	web, err := synthweb.Generate(reg, synthweb.Config{Sites: 60, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	e := &testEnv{web: web, bind: webapi.NewBindings(reg)}
	for _, s := range web.Sites {
		if s.Failure == synthweb.FailNone {
			e.site = s
			break
		}
	}
	sharedEnv = e
	return e
}

func (e *testEnv) browser(exts ...Extension) *Browser {
	return New(e.bind, webserver.DirectFetcher{Web: e.web}, exts...)
}

func TestLoadExecutesOnLoadScripts(t *testing.T) {
	e := env(t)
	b := e.browser()
	page, err := b.Load("http://" + e.site.Domain + "/")
	if err != nil {
		t.Fatal(err)
	}
	if page.Runtime.TotalNativeCalls() == 0 {
		t.Error("no native calls after load; immediate/load statements did not run")
	}
	if len(page.ScriptErrors) != 0 {
		t.Errorf("script errors on healthy site: %v", page.ScriptErrors)
	}
}

func TestLoadFailsOnUnresponsive(t *testing.T) {
	e := env(t)
	b := e.browser()
	for _, s := range e.web.Sites {
		if s.Failure != synthweb.FailUnresponsive {
			continue
		}
		if _, err := b.Load("http://" + s.Domain + "/"); err == nil {
			t.Error("unresponsive site loaded")
		}
		return
	}
	t.Skip("no unresponsive site in sample")
}

func TestSyntaxErrorDetected(t *testing.T) {
	e := env(t)
	b := e.browser()
	for _, s := range e.web.Sites {
		if s.Failure != synthweb.FailScriptError {
			continue
		}
		page, err := b.Load("http://" + s.Domain + "/")
		if err != nil {
			t.Fatal(err)
		}
		if !page.HasParseErrors() {
			t.Error("script-error site loaded without parse errors")
		}
		return
	}
	t.Skip("no script-error site in sample")
}

func TestClickAnchorRecordsNavigation(t *testing.T) {
	e := env(t)
	b := e.browser()
	page, err := b.Load("http://" + e.site.Domain + "/")
	if err != nil {
		t.Fatal(err)
	}
	start := len(page.NavAttempts)
	anchors := page.DOM.ElementsByTag("a")
	if len(anchors) == 0 {
		t.Fatal("no anchors")
	}
	page.Click(anchors[0])
	if len(page.NavAttempts) != start+1 {
		t.Fatalf("nav attempts %d -> %d after anchor click", start, len(page.NavAttempts))
	}
	if !strings.HasPrefix(page.NavAttempts[start], "http://") {
		t.Errorf("nav attempt not absolute: %q", page.NavAttempts[start])
	}
}

func TestClickSelectorHandlers(t *testing.T) {
	e := env(t)
	b := e.browser()
	page, err := b.Load("http://" + e.site.Domain + "/")
	if err != nil {
		t.Fatal(err)
	}
	// Clicking #act-0 fires the generated navigation handler.
	btn := page.DOM.GetElementByID("act-0")
	if btn == nil {
		t.Fatal("#act-0 missing")
	}
	before := len(page.NavAttempts)
	page.Click(btn)
	if len(page.NavAttempts) <= before {
		t.Error("#act-0 click handler did not navigate")
	}
}

func TestHiddenElementsNotClickable(t *testing.T) {
	e := env(t)
	b := e.browser()
	page, err := b.Load("http://" + e.site.Domain + "/")
	if err != nil {
		t.Fatal(err)
	}
	btn := page.DOM.GetElementByID("act-0")
	btn.Hidden = true
	before := len(page.NavAttempts)
	page.Click(btn)
	if len(page.NavAttempts) != before {
		t.Error("hidden element click had effects")
	}
}

func TestTimerHandlersFire(t *testing.T) {
	e := env(t)
	b := e.browser()
	// Find a page whose scripts register a timer by scanning sites.
	for _, s := range e.web.Sites {
		if s.Failure != synthweb.FailNone {
			continue
		}
		page, err := b.Load("http://" + s.Domain + "/")
		if err != nil {
			continue
		}
		before := page.Runtime.TotalNativeCalls()
		page.AdvanceClock(30)
		if page.Runtime.TotalNativeCalls() > before {
			return // a timer fired: done
		}
	}
	t.Skip("no timer handlers on sampled home pages")
}

func TestBlockingExtensionVetoesAndHides(t *testing.T) {
	e := env(t)
	list, err := blocking.ParseList("easylist", e.web.FilterListText)
	if err != nil {
		t.Fatal(err)
	}
	abp := &BlockingExtension{Label: "adblock-plus", Blocker: blocking.NewEngine(list)}

	// Find a site whose home page carries an ad script.
	for _, s := range e.web.Sites {
		if s.Failure != synthweb.FailNone {
			continue
		}
		plain, err := e.browser().Load("http://" + s.Domain + "/")
		if err != nil {
			t.Fatal(err)
		}
		hasAd := false
		for _, sc := range plain.DOM.Scripts() {
			if strings.Contains(sc.Src, "adnet-") || strings.Contains(sc.Src, "adtrk-") {
				hasAd = true
			}
		}
		if !hasAd {
			continue
		}
		blocked, err := e.browser(abp).Load("http://" + s.Domain + "/")
		if err != nil {
			t.Fatal(err)
		}
		if len(blocked.BlockedRequests) == 0 {
			t.Error("ABP extension blocked nothing on an ad-carrying page")
		}
		if blocked.Runtime.TotalNativeCalls() > plain.Runtime.TotalNativeCalls() {
			t.Error("blocking increased native calls")
		}
		// Element hiding: the ad banner must be hidden.
		if banner := blocked.DOM.QuerySelector("div.ad-banner"); banner != nil && banner.Visible() {
			t.Error("ad banner visible despite ##.ad-banner rule")
		}
		return
	}
	t.Fatal("no ad-carrying site found")
}

func TestScriptCacheServesRepeatLoads(t *testing.T) {
	e := env(t)
	b := e.browser()
	url := "http://" + e.site.Domain + "/"
	p1, err := b.Load(url)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := b.Load(url)
	if err != nil {
		t.Fatal(err)
	}
	if p1.Runtime.TotalNativeCalls() != p2.Runtime.TotalNativeCalls() {
		t.Error("cached script load produced different execution")
	}
}

func TestNonDocumentLoadFails(t *testing.T) {
	e := env(t)
	b := e.browser()
	if _, err := b.Load("http://" + e.site.Domain + "/static/home.js"); err == nil {
		t.Fatal("loading a script as a document should fail")
	}
}

// TestTemplateCloneIndependencePages pins clone independence at the page
// level: mutating one loaded page's DOM — structure, Hidden flags, and
// attributes — must not leak into the cached template or a page loaded
// before or after the mutation.
func TestTemplateCloneIndependencePages(t *testing.T) {
	e := env(t)
	b := e.browser()
	url := "http://" + e.site.Domain + "/"

	p1, err := b.Load(url)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := b.Load(url)
	if err != nil {
		t.Fatal(err)
	}
	if p1.DOM == p2.DOM {
		t.Fatal("repeat loads share a DOM")
	}

	btn := p1.DOM.GetElementByID("act-0")
	if btn == nil {
		t.Fatal("#act-0 missing")
	}
	btn.SetHidden(true)
	btn.SetAttr("id", "mutated")
	body := p1.DOM.Body()
	body.AppendChild(dom.NewElement("span"))
	body.RemoveChild(body.Children[0])

	if el := p2.DOM.GetElementByID("act-0"); el == nil || !el.Visible() {
		t.Error("mutating page 1 leaked into concurrently live page 2")
	}
	p3, err := b.Load(url)
	if err != nil {
		t.Fatal(err)
	}
	if el := p3.DOM.GetElementByID("act-0"); el == nil || !el.Visible() {
		t.Error("mutating a clone leaked into the cached template")
	}
	if p3.DOM.GetElementByID("mutated") != nil {
		t.Error("attribute write leaked into the cached template")
	}
}

// TestReleaseRecyclesDeterministically drives many load/release cycles and
// checks every recycled page reproduces the first load exactly: same native
// call totals (runtime counters were reset), same handler count, no
// leftover navigation attempts or errors.
func TestReleaseRecyclesDeterministically(t *testing.T) {
	e := env(t)
	b := e.browser()
	url := "http://" + e.site.Domain + "/"

	first, err := b.Load(url)
	if err != nil {
		t.Fatal(err)
	}
	wantCalls := first.Runtime.TotalNativeCalls()
	wantNavs := len(first.NavAttempts)
	b.Release(first)

	for i := 0; i < 5; i++ {
		p, err := b.Load(url)
		if err != nil {
			t.Fatal(err)
		}
		if got := p.Runtime.TotalNativeCalls(); got != wantCalls {
			t.Fatalf("cycle %d: %d native calls, want %d (stale counters on recycled runtime?)", i, got, wantCalls)
		}
		if len(p.NavAttempts) != wantNavs {
			t.Fatalf("cycle %d: %d nav attempts, want %d", i, len(p.NavAttempts), wantNavs)
		}
		if len(p.ScriptErrors) != 0 {
			t.Fatalf("cycle %d: leftover script errors %v", i, p.ScriptErrors)
		}
		p.AdvanceClock(30) // dirty the timer state before recycling
		p.Scroll()
		b.Release(p)
	}
}

// TestReleaseEdgeCases: nil, double release, foreign pages, and DisableReuse
// are all no-ops.
func TestReleaseEdgeCases(t *testing.T) {
	e := env(t)
	b := e.browser()
	b.Release(nil)

	other := e.browser()
	p, err := other.Load("http://" + e.site.Domain + "/")
	if err != nil {
		t.Fatal(err)
	}
	b.Release(p) // foreign page: no-op
	if p.Runtime == nil || p.DOM == nil {
		t.Fatal("foreign release mutated the page")
	}
	other.Release(p)
	other.Release(p) // double release: no-op

	slow := e.browser()
	slow.DisableReuse = true
	sp, err := slow.Load("http://" + e.site.Domain + "/")
	if err != nil {
		t.Fatal(err)
	}
	slow.Release(sp)
	if sp.DOM == nil {
		t.Fatal("Release under DisableReuse reset the page")
	}
}

// TestSlowPathMatchesFastPath compares a reuse-disabled browser against the
// default one page by page.
func TestSlowPathMatchesFastPath(t *testing.T) {
	e := env(t)
	fast := e.browser()
	slow := e.browser()
	slow.DisableReuse = true
	for _, s := range e.web.Sites[:10] {
		url := "http://" + s.Domain + "/"
		fp, ferr := fast.Load(url)
		sp, serr := slow.Load(url)
		if (ferr == nil) != (serr == nil) {
			t.Fatalf("%s: fast err=%v slow err=%v", url, ferr, serr)
		}
		if ferr != nil {
			continue
		}
		// Load again on the fast path so the template-cache hit path is
		// compared too, after releasing the first page.
		fast.Release(fp)
		fp, ferr = fast.Load(url)
		if ferr != nil {
			t.Fatal(ferr)
		}
		if got, want := fp.Runtime.TotalNativeCalls(), sp.Runtime.TotalNativeCalls(); got != want {
			t.Errorf("%s: fast path %d native calls, slow path %d", url, got, want)
		}
		if got, want := len(fp.NavAttempts), len(sp.NavAttempts); got != want {
			t.Errorf("%s: fast path %d nav attempts, slow path %d", url, got, want)
		}
		if got, want := len(fp.BlockedRequests), len(sp.BlockedRequests); got != want {
			t.Errorf("%s: fast path %d blocked, slow path %d", url, got, want)
		}
	}
}

// TestInteractiveCacheInvalidation: the page's cached interactive list must
// refresh when the DOM mutates via SetHidden or structural changes.
func TestInteractiveCacheInvalidation(t *testing.T) {
	e := env(t)
	page, err := e.browser().Load("http://" + e.site.Domain + "/")
	if err != nil {
		t.Fatal(err)
	}
	before := len(page.Interactive())
	if before == 0 {
		t.Fatal("no interactive elements")
	}
	if got := len(page.Interactive()); got != before {
		t.Fatalf("stable page changed interactive count %d -> %d", before, got)
	}
	el := page.Interactive()[0]
	el.SetHidden(true)
	after := len(page.Interactive())
	if after >= before {
		t.Errorf("hiding an interactive element left count %d -> %d", before, after)
	}
	el.SetHidden(false)
	if got := len(page.Interactive()); got != before {
		t.Errorf("unhiding did not restore count: %d != %d", got, before)
	}
	for _, f := range page.FormFields() {
		if f.Tag != "input" && f.Tag != "textarea" {
			t.Errorf("FormFields returned <%s>", f.Tag)
		}
	}
}

// TestScriptCacheLRUKeepsHotEntries: unlike the old wholesale eviction, a
// constantly re-used entry survives an overflow of one-shot entries.
func TestScriptCacheLRUKeepsHotEntries(t *testing.T) {
	c := newLRUCache[int](4)
	c.put("hot", 1)
	for i := 0; i < 40; i++ {
		if _, ok := c.get("hot"); !ok {
			t.Fatalf("hot entry evicted after %d inserts", i)
		}
		c.put(fmt.Sprintf("cold-%d", i), i)
	}
	if len(c.entries) != 4 {
		t.Errorf("cache holds %d entries, cap 4", len(c.entries))
	}
	if _, ok := c.get("cold-0"); ok {
		t.Error("oldest cold entry not evicted")
	}
	// Refreshing an existing key must not grow the cache.
	c.put("hot", 2)
	if v, _ := c.get("hot"); v != 2 {
		t.Error("refresh did not update value")
	}
}
