package crawler

import (
	"fmt"
	"math/rand"
	"net/url"
	"strings"
	"sync"

	"repro/internal/blocking"
	"repro/internal/browser"
	"repro/internal/dom"
	"repro/internal/extension"
	"repro/internal/gremlins"
	"repro/internal/measure"
	"repro/internal/synthweb"
	"repro/internal/webapi"
	"repro/internal/webserver"
)

// Config parameterizes the survey.
type Config struct {
	// Rounds is the number of visits per (site, case); the paper uses 5.
	Rounds int
	// Branch is the BFS fan-out per level; the paper uses 3 (1 home +
	// 3 sections + 9 leaves = 13 pages).
	Branch int
	// PageSeconds is the monkey-testing budget per page (paper: 30).
	PageSeconds float64
	// ActionsPerSecond is the gremlin action rate.
	ActionsPerSecond float64
	// Seed drives every random choice.
	Seed int64
	// Cases lists the browser configurations to run; defaults to the
	// paper's default + blocking pair plus the ad-only and tracker-only
	// profiles behind Figure 7.
	Cases []measure.Case
	// PathNoveltyPreference disables the paper's preference for URLs
	// with unseen directory structure when false (ablation).
	PathNoveltyPreference bool
	// WithCredentials enables the paper's §7.3 closed-web mode: the
	// crawler authenticates navigations into members areas by appending
	// the site's session token, so monkey testing covers logged-in
	// functionality too.
	WithCredentials bool
	// DisableBrowserReuse turns off the browser's revisit fast path (DOM
	// template cache, page/runtime pooling) so every load fetches and
	// allocates from scratch — an ablation/debugging knob; survey logs
	// are byte-identical either way (test-enforced).
	DisableBrowserReuse bool
	// DisableScriptCompile keeps page scripts on the webscript AST
	// interpreter instead of the compiled-op fast path — an
	// ablation/debugging knob; survey logs are byte-identical either way
	// (test-enforced).
	DisableScriptCompile bool
	// DisableMatcherIndex routes ABP ShouldBlock decisions through the
	// linear all-rules scan instead of the tokenized rule index — an
	// ablation/debugging knob; survey logs are byte-identical either way
	// (test-enforced).
	DisableMatcherIndex bool
}

// DefaultConfig mirrors the paper's methodology.
func DefaultConfig(seed int64) Config {
	return Config{
		Rounds:                5,
		Branch:                3,
		PageSeconds:           30,
		ActionsPerSecond:      2,
		Seed:                  seed,
		Cases:                 measure.AllCases(),
		PathNoveltyPreference: true,
	}
}

// Crawler runs surveys against a synthetic web. Every browser it builds,
// one per NewVisitor and one per HumanVisit, draws on the crawler's one
// browser.Cache, so a document or script is fetched, parsed and compiled
// once however many configurations visit it. The survey engine builds one
// Crawler per worker, so each worker owns one cache.
type Crawler struct {
	Web      *synthweb.Web
	Bindings *webapi.Bindings
	// NewFetcher builds a fetcher per browser; nil means direct
	// in-process fetching.
	NewFetcher func() webserver.Fetcher
	Cfg        Config

	cacheOnce sync.Once
	cache     *browser.Cache

	// Parsed blocker state is shared by every browser of the crawler: the
	// filter list and tracker database are immutable once built, so one
	// parse serves all of its visitors.
	blockersOnce sync.Once
	abpEngine    *blocking.Engine
	trackerDB    *blocking.TrackerDB
	blockersErr  error
}

// New builds a crawler with the direct fetcher.
func New(web *synthweb.Web, bindings *webapi.Bindings, cfg Config) *Crawler {
	return &Crawler{Web: web, Bindings: bindings, Cfg: cfg}
}

// Stats summarizes a survey (Table 1).
type Stats struct {
	// DomainsMeasured is the number of domains that produced data
	// (paper: 9,733 of 10,000).
	DomainsMeasured int
	// DomainsFailed is the number of unmeasurable domains (paper: 267).
	DomainsFailed int
	// PagesVisited is the number of page visits across all cases and
	// rounds (paper: 2,240,484).
	PagesVisited int64
	// Invocations is the number of feature invocations recorded
	// (paper: 21,511,926,733).
	Invocations int64
	// InteractionSeconds is the total simulated interaction time
	// (paper: ~480 days).
	InteractionSeconds float64
}

// blockers parses the synthetic web's filter list and tracker database
// exactly once per Crawler; both structures are read-only after construction
// and safe to share across concurrent browsers.
func (c *Crawler) blockers() (*blocking.Engine, *blocking.TrackerDB, error) {
	c.blockersOnce.Do(func() {
		list, err := blocking.ParseList("easylist-synthetic", c.Web.FilterListText)
		if err != nil {
			c.blockersErr = fmt.Errorf("crawler: parsing filter list: %w", err)
			return
		}
		c.abpEngine = blocking.NewEngine(list)
		c.abpEngine.DisableIndex = c.Cfg.DisableMatcherIndex
		db, err := blocking.ParseTrackerDB(c.Web.TrackerLibText)
		if err != nil {
			c.blockersErr = fmt.Errorf("crawler: parsing tracker library: %w", err)
			return
		}
		c.trackerDB = db
	})
	return c.abpEngine, c.trackerDB, c.blockersErr
}

// extensionsFor builds the extension stack for a case. The measurer always
// rides along; blockers depend on the case.
func (c *Crawler) extensionsFor(cs measure.Case, m *extension.Measurer) ([]browser.Extension, error) {
	exts := []browser.Extension{m}
	needABP := cs == measure.CaseBlocking || cs == measure.CaseAdBlock
	needGhostery := cs == measure.CaseBlocking || cs == measure.CaseGhostery
	if !needABP && !needGhostery {
		return exts, nil
	}
	abp, ghostery, err := c.blockers()
	if err != nil {
		return nil, err
	}
	if needABP {
		exts = append(exts, &browser.BlockingExtension{Label: "adblock-plus", Blocker: abp})
	}
	if needGhostery {
		exts = append(exts, &browser.BlockingExtension{Label: "ghostery", Blocker: ghostery})
	}
	return exts, nil
}

// VisitSeed derives the deterministic seed of one visit. Every scheduler —
// the sharded engine in internal/pipeline and the single-threaded test
// oracle alike — must use this derivation so a visit's randomness depends
// only on (base seed, site, case, round), never on which worker performs it.
func VisitSeed(base int64, site int, cs measure.Case, round int) int64 {
	var caseSalt int64
	for _, b := range []byte(cs) {
		caseSalt = caseSalt*131 + int64(b)
	}
	return base ^ (int64(site)+1)*1_000_003 ^ caseSalt*7_919 ^ int64(round+1)*104_729
}

// Visitor crawls sites under one browser configuration. A Visitor owns one
// browser, with its extensions and pools, whose cache it shares with the
// crawler's other browsers. It must be used from a single goroutine; create
// one per configuration via NewVisitor.
type Visitor struct {
	crawler  *Crawler
	cfg      Config
	browser  *browser.Browser
	measurer *extension.Measurer

	// Per-visit scratch state, interned across CrawlOnce calls: a 90-site
	// survey performs thousands of visits per worker, and rebuilding
	// these maps (and the gremlin horde) every visit dominated the
	// scheduler-side allocation profile (see internal/pipeline
	// benchmarks). Reuse is safe because a Visitor is single-goroutine.
	horde  *gremlins.Horde
	rng    *rand.Rand // reseeded per visit: a fresh source is 4.9 KB
	counts map[int]int64
	// urls interns the current site's URLs; the slices below hold its IDs.
	urls                      urlTable
	pool, navOut, level, next []int32
	fresh, unseen, seen       []int32 // selectURLs scratch
}

// NewVisitor builds a single-goroutine visitor for one browser
// configuration, wiring the measurer and the case's blocking extensions.
func (c *Crawler) NewVisitor(cs measure.Case) (*Visitor, error) {
	m := extension.NewMeasurer()
	exts, err := c.extensionsFor(cs, m)
	if err != nil {
		return nil, err
	}
	return &Visitor{
		crawler:  c,
		cfg:      c.Cfg,
		browser:  c.newBrowser(exts...),
		measurer: m,
	}, nil
}

// newBrowser builds a browser on the crawler's cache with its own fetcher
// and the given extensions. Every browser of the crawler takes its reuse
// and compile switches from the one Config, so the browsers sharing the
// cache agree on them.
func (c *Crawler) newBrowser(exts ...browser.Extension) *browser.Browser {
	c.cacheOnce.Do(func() { c.cache = browser.NewCache(c.Bindings) })
	fetcher := webserver.Fetcher(webserver.DirectFetcher{Web: c.Web})
	if c.NewFetcher != nil {
		fetcher = c.NewFetcher()
	}
	b := c.cache.NewBrowser(fetcher, exts...)
	b.DisableReuse = c.Cfg.DisableBrowserReuse
	b.DisableScriptCompile = c.Cfg.DisableScriptCompile
	return b
}

// ensureScratch builds the interned per-visit state on first use (lazily,
// so a Visitor assembled by hand in tests works too).
func (w *Visitor) ensureScratch() {
	if w.horde == nil {
		w.horde = &gremlins.Horde{
			Species: []gremlins.Weighted{
				{Species: gremlins.Clicker{}, Weight: 0.55},
				{Species: gremlins.Scroller{}, Weight: 0.25},
				{Species: gremlins.Typer{}, Weight: 0.20},
			},
			Seconds:          w.cfg.PageSeconds,
			ActionsPerSecond: w.cfg.ActionsPerSecond,
		}
		w.rng = rand.New(rand.NewSource(0))
		w.counts = make(map[int]int64)
	}
}

// CrawlOnce performs one round of the paper's per-site procedure: monkey
// testing on the home page, then a breadth-first expansion through Branch
// levels of intercepted navigation targets (1 + 3 + 9 = 13 pages for
// Branch=3), 30 virtual seconds each. It returns the feature counts
// observed. A dead home page or a script syntax error makes the site
// unmeasurable, matching the paper's 267 lost domains.
//
// The returned map is the Visitor's interned scratch: it stays valid only
// until the next CrawlOnce on the same Visitor, so callers that retain the
// counts past that point must copy them. The survey engine converts the map
// to a bitset before the next visit.
func (w *Visitor) CrawlOnce(site *synthweb.Site, seed int64) (map[int]int64, int, error) {
	w.ensureScratch()
	// Seed restarts the stream exactly as a fresh rand.NewSource(seed)
	// would, without allocating one.
	rng := w.rng
	rng.Seed(seed)
	horde := w.horde
	urls := &w.urls
	urls.begin(w.crawler.Web.Ranking, site.Domain)

	clear(w.counts)
	counts := w.counts
	merge := func(m map[int]int64) {
		for id, n := range m {
			counts[id] += n
		}
	}

	pages := 0

	// visit loads a URL, monkey-tests it, and returns candidate local
	// URLs for the next BFS level. The returned slice is the Visitor's
	// interned nav scratch — valid only until the next visit call; every
	// caller below consumes it (pool add + selection) before revisiting.
	// The page itself is recycled via Release once its counts are taken.
	visit := func(id int32, isHome bool) ([]int32, error) {
		rawURL := urls.urls[id].url
		if w.cfg.WithCredentials {
			rawURL = authenticate(rawURL)
			id = urls.id(rawURL)
		}
		page, err := w.browser.Load(rawURL)
		if err != nil {
			if isHome {
				return nil, err
			}
			return nil, nil // dead subpage: skip, keep crawling
		}
		if isHome && page.HasParseErrors() {
			w.browser.Release(page)
			return nil, fmt.Errorf("crawler: %s has script syntax errors", site.Domain)
		}
		horde.Unleash(page, rng)
		merge(w.measurer.Take())
		pages++
		urls.urls[id].visited = true
		w.navOut = urls.candidates(page.NavAttempts, w.navOut[:0])
		w.browser.Release(page)
		return w.navOut, nil
	}

	candidates, err := visit(urls.id("http://"+site.Domain+"/"), true)
	if err != nil {
		w.measurer.Take() // drop partial counts
		return nil, 0, err
	}

	// pool holds discovered-but-unvisited URLs. When a parent page
	// yields fewer than Branch fresh URLs (the monkey did not click
	// every link, or a leaf page links mostly to visited pages), the
	// level is backfilled from the pool, so the 13-page budget is spent
	// whenever the site has enough distinct pages.
	pool := w.pool[:0]
	defer func() { w.pool = pool[:0] }()
	addPool := func(cands []int32) {
		for _, c := range cands {
			if !urls.urls[c].visited {
				pool = append(pool, c)
			}
		}
	}
	backfill := func(level []int32, want int) []int32 {
		for _, c := range pool {
			if len(level) >= want {
				break
			}
			if !urls.urls[c].visited {
				urls.take(c)
				level = append(level, c)
			}
		}
		return level
	}
	addPool(candidates)

	level := backfill(w.selectURLs(w.level[:0], candidates, rng), w.cfg.Branch)
	for depth := 0; depth < 2; depth++ {
		next := w.next[:0]
		for _, u := range level {
			cands, _ := visit(u, false)
			addPool(cands)
			next = w.selectURLs(next, cands, rng)
		}
		if depth == 0 {
			next = backfill(next, w.cfg.Branch*w.cfg.Branch)
		}
		w.level, w.next = next, level
		level = next
	}
	return counts, pages, nil
}

// selectURLs appends to dst up to Branch URLs from the candidates,
// preferring URLs whose directory structure has not been seen before
// (paper §4.3.1).
func (w *Visitor) selectURLs(dst, candidates []int32, rng *rand.Rand) []int32 {
	urls := &w.urls
	fresh := w.fresh[:0]
	for _, c := range candidates {
		if !urls.urls[c].visited {
			fresh = append(fresh, c)
		}
	}
	w.fresh = fresh[:0]
	rng.Shuffle(len(fresh), func(i, j int) { fresh[i], fresh[j] = fresh[j], fresh[i] })
	if w.cfg.PathNoveltyPreference {
		// Stable partition, unseen directory patterns first — the same
		// order sort.SliceStable on the boolean key produced.
		unseen, seen := w.unseen[:0], w.seen[:0]
		for _, c := range fresh {
			if urls.dirSeen[urls.dir(c)] {
				seen = append(seen, c)
			} else {
				unseen = append(unseen, c)
			}
		}
		fresh = append(unseen, seen...)
		w.unseen, w.seen = unseen[:0], seen[:0]
	}
	for i, c := range fresh {
		if i >= w.cfg.Branch {
			break
		}
		dst = append(dst, c)
		urls.take(c)
	}
	return dst
}

// authenticate appends the members-area session token to closed-web URLs
// (crawler credentialed mode, paper §7.3). Other URLs pass through.
func authenticate(rawURL string) string {
	u, err := url.Parse(rawURL)
	if err != nil || !strings.HasPrefix(u.Path, "/account") {
		return rawURL
	}
	if strings.Contains(u.RawQuery, "auth=") {
		return rawURL
	}
	if u.RawQuery != "" {
		u.RawQuery += "&"
	}
	u.RawQuery += "auth=" + synthweb.SessionToken
	return u.String()
}

// HumanVisit emulates the paper's external-validation protocol (§6.2): 90
// seconds of casual browsing across three pages — reading (scrolling and
// pointer movement), one search-box entry, and following one prominent
// link per page. It returns the features observed. Its browser draws on the
// crawler's cache, so every site of one protocol run shares one dispatch
// table and one set of LRUs.
func (c *Crawler) HumanVisit(site *synthweb.Site, seed int64) (map[int]int64, error) {
	m := extension.NewMeasurer()
	b := c.newBrowser(m)
	_ = seed // the human protocol is deterministic; seed kept for symmetry

	counts := make(map[int]int64)
	merge := func(mm map[int]int64) {
		for id, n := range mm {
			counts[id] += n
		}
	}

	current := "http://" + site.Domain + "/"
	for pageNo := 0; pageNo < 3; pageNo++ {
		page, err := b.Load(current)
		if err != nil {
			if pageNo == 0 {
				return nil, err
			}
			break
		}
		// 30 seconds of reading: scrolling, pointer movement, a
		// little typing.
		for i := 0; i < 10; i++ {
			page.Scroll()
			page.MouseMove()
			page.AdvanceClock(2.5)
		}
		if input := page.DOM.QuerySelector("#q"); input != nil {
			page.Input(input, "holiday offers")
		}
		page.AdvanceClock(5)

		// Follow the most prominent link: the first visible local
		// anchor.
		next := ""
		for _, href := range page.DOM.Links() {
			resolved := page.URL.ResolveReference(mustParseURL(href)).String()
			u, err := url.Parse(resolved)
			if err != nil {
				continue
			}
			if c.Web.Ranking.SameSite(u.Hostname(), site.Domain) {
				page.Click(findAnchor(page, href))
				next = resolved
				break
			}
		}
		merge(m.Take())
		b.Release(page)
		if next == "" {
			break
		}
		current = next
	}
	return counts, nil
}

func mustParseURL(s string) *url.URL {
	u, err := url.Parse(s)
	if err != nil {
		return &url.URL{}
	}
	return u
}

// findAnchor locates the anchor element carrying the href.
func findAnchor(page *browser.Page, href string) *dom.Node {
	for _, a := range page.DOM.ElementsByTag("a") {
		if got, _ := a.Attr("href"); got == href {
			return a
		}
	}
	return nil
}
