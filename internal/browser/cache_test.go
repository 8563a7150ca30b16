package browser

import (
	"fmt"
	"maps"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/blocking"
	"repro/internal/dom"
	"repro/internal/html"
	"repro/internal/webserver"
)

// loadOutcome is what one load shows of its browser's configuration.
type loadOutcome struct {
	failed  bool
	counts  map[int]int64 // the measurer's feature counts
	calls   int64
	blocked string
	navs    string
	errs    int
	hidden  string // document-order indices of hidden nodes
}

// configPair is two configurations on one or two caches: blocked hides
// elements and vetoes scripts through an ABP extension behind its measurer,
// plain only measures.
type configPair struct {
	blocked, plain *Browser
	bm, pm         *benchMeasurer
}

func newPair(e *testEnv, abp blocking.Blocker, blockedCache, plainCache *Cache) configPair {
	fetch := webserver.DirectFetcher{Web: e.web}
	p := configPair{bm: &benchMeasurer{counts: map[int]int64{}}, pm: &benchMeasurer{counts: map[int]int64{}}}
	p.blocked = blockedCache.NewBrowser(fetch, p.bm, &BlockingExtension{Label: "adblock-plus", Blocker: abp})
	p.plain = plainCache.NewBrowser(fetch, p.pm)
	return p
}

// drive loads url, runs its timers and a few events, records the outcome
// and releases the page.
func drive(b *Browser, m *benchMeasurer, url string) loadOutcome {
	p, err := b.Load(url)
	if err != nil {
		return loadOutcome{failed: true}
	}
	p.AdvanceClock(30)
	p.Scroll()
	for i, el := range p.Interactive() {
		if i >= 3 {
			break
		}
		p.Click(el)
	}
	o := loadOutcome{
		counts:  maps.Clone(m.counts),
		calls:   p.Runtime.TotalNativeCalls(),
		blocked: fmt.Sprint(p.BlockedRequests),
		navs:    fmt.Sprint(p.NavAttempts),
		errs:    len(p.ScriptErrors),
		hidden:  hiddenNodes(p.DOM),
	}
	clear(m.counts)
	b.Release(p)
	return o
}

func hiddenNodes(root *dom.Node) string {
	var b strings.Builder
	i := 0
	root.Walk(func(n *dom.Node) bool {
		if n.Hidden {
			fmt.Fprintf(&b, "%d,", i)
		}
		i++
		return true
	})
	return b.String()
}

// treeDigest renders every node of a tree with its hidden flag and child
// count, so two trees with equal digests match node for node.
func treeDigest(root *dom.Node) string {
	var b strings.Builder
	root.Walk(func(n *dom.Node) bool {
		fmt.Fprintf(&b, "%s hidden=%t kids=%d\n", n, n.Hidden, len(n.Children))
		return true
	})
	return b.String()
}

// isolationFixture is the pages the isolation tests load, the ABP engine,
// and each page's outcomes under the two configurations with a private
// cache per browser.
type isolationFixture struct {
	urls        []string
	abp         blocking.Blocker
	wantBlocked []loadOutcome
	wantPlain   []loadOutcome
}

func newIsolationFixture(t *testing.T) *isolationFixture {
	t.Helper()
	e := env(t)
	list, err := blocking.ParseList("easylist", e.web.FilterListText)
	if err != nil {
		t.Fatal(err)
	}
	f := &isolationFixture{abp: blocking.NewEngine(list)}
	for _, s := range e.web.Sites[:20] {
		f.urls = append(f.urls, "http://"+s.Domain+"/")
	}
	ref := newPair(e, f.abp, NewCache(e.bind), NewCache(e.bind))
	hidesAndVetoes := 0
	for _, url := range f.urls {
		b, p := drive(ref.blocked, ref.bm, url), drive(ref.plain, ref.pm, url)
		f.wantBlocked = append(f.wantBlocked, b)
		f.wantPlain = append(f.wantPlain, p)
		if b.blocked != "[]" && b.hidden != p.hidden {
			hidesAndVetoes++
		}
	}
	if hidesAndVetoes == 0 {
		t.Fatal("no page where the blocking extension both vetoes and hides; the test would prove nothing")
	}
	return f
}

// alternate loads every page three times in both configurations of a pair
// on a shared cache, switching which configuration loads a page first, and
// reports every outcome that differs from the private-cache one.
func (f *isolationFixture) alternate(p configPair) []string {
	var diffs []string
	for round := 0; round < 3; round++ {
		for i, url := range f.urls {
			var b, pl loadOutcome
			if (i+round)%2 == 0 {
				b = drive(p.blocked, p.bm, url)
				pl = drive(p.plain, p.pm, url)
			} else {
				pl = drive(p.plain, p.pm, url)
				b = drive(p.blocked, p.bm, url)
			}
			if !reflect.DeepEqual(b, f.wantBlocked[i]) {
				diffs = append(diffs, fmt.Sprintf("round %d %s: blocked configuration %+v, private cache %+v", round, url, b, f.wantBlocked[i]))
			}
			if !reflect.DeepEqual(pl, f.wantPlain[i]) {
				diffs = append(diffs, fmt.Sprintf("round %d %s: plain configuration %+v, private cache %+v", round, url, pl, f.wantPlain[i]))
			}
		}
	}
	return diffs
}

// checkTemplates compares every template the cache holds for the fixture's
// pages with a fresh parse of the page.
func (f *isolationFixture) checkTemplates(t *testing.T, c *Cache) {
	t.Helper()
	e := env(t)
	held := 0
	for _, url := range f.urls {
		c.mu.Lock()
		tpl, ok := c.templates.get(url)
		c.mu.Unlock()
		if !ok {
			continue
		}
		held++
		res, err := (webserver.DirectFetcher{Web: e.web}).Fetch(url)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := html.Parse(res.Body)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := treeDigest(tpl.tpl.Root()), treeDigest(fresh); got != want {
			t.Errorf("%s: the cached template no longer matches a fresh parse", url)
		}
	}
	if held == 0 {
		t.Fatal("the shared cache holds no template of the fixture's pages")
	}
}

// TestSharedCacheIsolatesConfigurations shares one Cache between a browser
// that hides elements and vetoes scripts and one that only measures, and
// loads the same pages in both, alternately. Hidden flags and vetoed
// scripts must stay with the page that made them, each measurer must count
// what it counts with a private cache, and the frozen templates must not
// move.
func TestSharedCacheIsolatesConfigurations(t *testing.T) {
	f := newIsolationFixture(t)
	e := env(t)
	c := NewCache(e.bind)
	for _, d := range f.alternate(newPair(e, f.abp, c, c)) {
		t.Error(d)
	}
	f.checkTemplates(t, c)
}

// TestSharedCacheConcurrent drives two such pairs from two goroutines on
// one cache, so the LRUs, the dispatch table and template instantiation
// are shared across goroutines as well as configurations (run it with
// -race).
func TestSharedCacheConcurrent(t *testing.T) {
	f := newIsolationFixture(t)
	e := env(t)
	c := NewCache(e.bind)
	pairs := []configPair{newPair(e, f.abp, c, c), newPair(e, f.abp, c, c)}
	diffs := make([][]string, len(pairs))
	var wg sync.WaitGroup
	for i, p := range pairs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			diffs[i] = f.alternate(p)
		}()
	}
	wg.Wait()
	for i, ds := range diffs {
		for _, d := range ds {
			t.Errorf("goroutine %d: %s", i, d)
		}
	}
	f.checkTemplates(t, c)
}
