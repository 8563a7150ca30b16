package browser

import (
	"errors"
	"fmt"
	"net/url"
	"strings"
	"sync"

	"repro/internal/blocking"
	"repro/internal/dom"
	"repro/internal/webapi"
	"repro/internal/webscript"
	"repro/internal/webserver"
)

// Extension is a browser extension.
type Extension interface {
	// Name identifies the extension in diagnostics.
	Name() string
	// OnBeforeRequest may veto a subresource fetch (true = block).
	OnBeforeRequest(req blocking.Request) bool
	// OnDOMReady runs after DOM construction, before any page script.
	OnDOMReady(p *Page)
}

// Browser is a reusable browser profile: bindings, fetcher, extensions,
// page and runtime pools, and the Cache it draws on for the revisit fast
// path (see the package documentation). The crawl revisits every URL dozens
// of times, so parsed page templates and compiled scripts come from the
// cache, and Release recycles page and runtime structures.
type Browser struct {
	Bindings   *webapi.Bindings
	Fetcher    webserver.Fetcher
	Extensions []Extension

	// DisableReuse turns off the revisit fast path — template cloning and
	// page/runtime pooling — so every load fetches, parses, and allocates
	// from scratch. An ablation/debugging knob; survey results are
	// identical either way (test-enforced).
	DisableReuse bool

	// DisableScriptCompile keeps scripts on the AST interpreter: parse-cache
	// entries skip compilation and every execution walks []Stmt through
	// webscript.Execute. Like DisableReuse it is an ablation/differential
	// knob — set it before the first Load and leave it — and survey results
	// are identical either way (test-enforced). Browsers sharing a Cache
	// must agree on it: the cache keeps whatever form the browser that
	// inserted a script built, compiled or not.
	DisableScriptCompile bool

	cache *Cache

	pagePool    sync.Pool // *Page
	runtimePool sync.Pool // *webapi.Runtime, instrumented by this browser's extensions
}

// New creates a browser profile with a private Cache.
func New(b *webapi.Bindings, f webserver.Fetcher, exts ...Extension) *Browser {
	return NewCache(b).NewBrowser(f, exts...)
}

// ScriptError records a script that failed to parse or execute, with its
// origin URL ("inline:" prefix for inline scripts).
type ScriptError struct {
	URL string
	Err error
}

func (e ScriptError) Error() string { return fmt.Sprintf("script %s: %v", e.URL, e.Err) }

// boundHandler is a registered event handler with its origin and its
// selector compiled exactly once at bind time.
type boundHandler struct {
	h       *webscript.Handler
	ops     []webscript.Op // compiled body; nil runs the interpreter
	sel     dom.Selector   // compiled h.Selector; meaningful when selOK
	selOK   bool           // h.Selector parsed successfully
	origin  string         // script URL, diagnostics only
	lastRun float64
}

// Page is one loaded page.
type Page struct {
	// URL is the page's resolved location. On the fast path it is shared
	// read-only with every other load of the same URL; do not mutate.
	URL *url.URL
	// DOM is the parsed document. Its nodes live in the page's slabs: after
	// Release, a later Load overwrites them with its own document, so no
	// node of it may be kept past Release.
	DOM *dom.Node
	// Runtime is the page's Web API dispatch state.
	Runtime *webapi.Runtime
	// Clock is the page's virtual time in seconds since load.
	Clock float64
	// NavAttempts lists navigation attempts (absolute URLs) in order;
	// the crawler intercepts and records them (§4.3.1).
	NavAttempts []string
	// OnHandlerRegistered, when non-nil, observes every event-handler
	// registration (event type and selector). The paper's extension
	// could have captured a subset of event registrations this way but
	// omitted them (§4.2.3); the optional event measurer uses this hook
	// to implement that variant.
	OnHandlerRegistered func(ev webscript.EventType, selector string)
	// ScriptErrors lists scripts that failed to fetch, parse or run.
	ScriptErrors []ScriptError
	// BlockedRequests lists subresource URLs vetoed by extensions.
	BlockedRequests []string

	browser  *Browser
	slabs    dom.Slabs         // DOM's storage, kept through Release for the next Load
	links    map[string]string // the template's resolved anchors; read-only, nil under DisableReuse
	resolved map[string]string // resolveURL's memo for other references; cleared on reset
	host     executionHost     // reusable script host; avoids boxing per block
	handlers []boundHandler

	// interactive caches the DOM's visible interactive elements (and the
	// form-field subset), rebuilt when the DOM's mutation generation
	// moves — the gremlin horde enumerates them per action.
	interactive    []*dom.Node
	formFields     []*dom.Node
	interactiveGen uint64
	interactiveOK  bool
	formFieldsOK   bool
}

// executionHost adapts a page (and the executing script's origin) to the
// webscript.Host and webscript.OpHost interfaces. For the compiled path,
// refs is the published slice of the cache's dispatch table, loaded once
// per statement block.
type executionHost struct {
	page   *Page
	origin string
	refs   []webapi.Dispatch
}

func (h executionHost) Invoke(iface, member string, count int) error {
	return h.page.Runtime.Call(iface, member, count)
}

func (h executionHost) SetProperty(iface, member string) error {
	return h.page.Runtime.SetProperty(iface, member)
}

func (h executionHost) InvokeRef(ref, count int) error {
	return h.page.Runtime.CallDispatch(&h.refs[ref], count)
}

func (h executionHost) SetRef(ref int) error {
	return h.page.Runtime.SetDispatch(&h.refs[ref])
}

func (h executionHost) Navigate(path string) {
	h.page.NavAttempts = append(h.page.NavAttempts, h.page.resolveURL(path))
}

// runBody executes one statement block — compiled when ops is non-nil,
// interpreted otherwise — recording any error against origin.
func (p *Page) runBody(ops []webscript.Op, stmts []webscript.Stmt, origin string, refs []webapi.Dispatch) {
	// Execution is strictly sequential (handlers never nest), so the page's
	// embedded host is reused across blocks instead of boxing a fresh value
	// into the interface per call.
	p.host = executionHost{page: p, origin: origin, refs: refs}
	var err error
	if ops != nil {
		err = webscript.ExecuteOps(ops, &p.host)
	} else {
		err = webscript.Execute(stmts, &p.host)
	}
	if err != nil {
		p.ScriptErrors = append(p.ScriptErrors, ScriptError{URL: origin, Err: err})
	}
}

// resolveURL resolves a possibly relative reference against the page URL.
// An anchor's href is found in the template's links, resolved when the
// template was built; any other reference (a script's navigation target,
// an href a script rewrote) is resolved once per page and memoized, since
// gremlin hordes and timer handlers repeat the same few every second.
func (p *Page) resolveURL(ref string) string {
	if s, ok := p.links[ref]; ok {
		return s
	}
	if s, ok := p.resolved[ref]; ok {
		return s
	}
	s := resolveAgainst(p.URL, ref)
	if p.resolved == nil {
		p.resolved = make(map[string]string, 8)
	}
	p.resolved[ref] = s
	return s
}

// Host returns the page's hostname.
func (p *Page) Host() string { return p.URL.Hostname() }

// Load fetches, parses, instruments, and executes a page. A fetch or HTML
// parse failure of the document itself fails the load; failures of
// individual scripts are recorded on the page (real browsers keep going).
//
// Repeat loads of a URL take the fast path: the document comes from the
// template cache as an arena clone (no fetch, no parse) and the page and
// runtime structures are recycled from the pools Release feeds. A recycled
// page clones the document into the node slabs of its released one when
// they are large enough. Pass the finished page to Release to keep the
// cycle going.
func (b *Browser) Load(rawURL string) (*Page, error) {
	if b.DisableReuse {
		return b.loadSlow(rawURL)
	}
	t, err := b.template(rawURL)
	if err != nil {
		return nil, err
	}
	page := b.newPage()
	page.URL = t.url
	page.DOM = t.tpl.InstantiateInto(&page.slabs)
	page.Runtime = b.newRuntime()
	page.browser = b
	page.links = t.links
	b.finishLoad(page, t.scripts)
	return page, nil
}

// loadSlow is the fast path's ablation twin: fetch, parse, and allocate
// the document, page, and runtime per load, bypassing the template cache
// and the pools. It is not the pre-fast-path seed byte for byte: script
// parses (external and, unlike the seed, inline too) stay LRU-cached and
// selectors still compile once per bound handler — the knob isolates
// template cloning and pooling, the mechanisms that share state across
// loads.
func (b *Browser) loadSlow(rawURL string) (*Page, error) {
	doc, u, err := b.fetchDocument(rawURL)
	if err != nil {
		return nil, err
	}
	page := &Page{
		URL:     u,
		DOM:     doc,
		Runtime: b.Bindings.NewRuntime(),
		browser: b,
	}
	b.finishLoad(page, collectScripts(doc, u))
	return page, nil
}

// finishLoad runs the load pipeline past DOM construction: extension
// injection, script execution in document order, and load-event dispatch.
func (b *Browser) finishLoad(page *Page, scripts []templateScript) {
	// Extension injection point: after DOM construction, before any page
	// script executes (paper §4.2).
	for _, ext := range b.Extensions {
		ext.OnDOMReady(page)
	}

	for _, ref := range scripts {
		if ref.req.URL == "" {
			cs := b.inlineScript(ref.inline)
			if cs.err != nil {
				page.ScriptErrors = append(page.ScriptErrors, ScriptError{URL: "inline:" + page.URL.String(), Err: cs.err})
				continue
			}
			page.installScript("inline:"+page.URL.String(), cs)
			continue
		}
		vetoed := false
		for _, ext := range b.Extensions {
			if ext.OnBeforeRequest(ref.req) {
				vetoed = true
				break
			}
		}
		if vetoed {
			page.BlockedRequests = append(page.BlockedRequests, ref.req.URL)
			continue
		}
		cs := b.fetchScript(ref.req.URL)
		if cs.err != nil {
			page.ScriptErrors = append(page.ScriptErrors, ScriptError{URL: ref.req.URL, Err: cs.err})
			continue
		}
		page.installScript(ref.req.URL, cs)
	}

	// Fire load handlers.
	page.fire(webscript.EventLoad, nil)
}

// newPage takes a recycled page from the pool, or allocates one.
func (b *Browser) newPage() *Page {
	if p, _ := b.pagePool.Get().(*Page); p != nil {
		return p
	}
	return &Page{}
}

// newRuntime takes a recycled runtime from the pool (arriving with this
// browser's instrumentation intact and counters zeroed), or builds a fresh
// one from the bindings.
func (b *Browser) newRuntime() *webapi.Runtime {
	if rt, _ := b.runtimePool.Get().(*webapi.Runtime); rt != nil {
		return rt
	}
	return b.Bindings.NewRuntime()
}

// Release returns a finished page and its runtime to the browser's pools.
// Call it once everything needed from the page has been drained (measurer
// counts taken, navigation attempts copied); the page must not be used —
// or Released again — afterwards, exactly like any pooled object after
// Put (a second Release is only harmless while the page has not been
// reissued by a Load). That includes the page's DOM: the pooled page keeps
// the DOM's node slabs, and a later Load overwrites the released nodes
// with its own document. Releasing nil, a page belonging to another
// browser, or a page under DisableReuse is a no-op.
func (b *Browser) Release(p *Page) {
	if p == nil || p.browser != b || b.DisableReuse {
		return
	}
	rt := p.Runtime
	p.reset()
	b.pagePool.Put(p)
	if rt != nil {
		// The runtime keeps this browser's shims (extensions mark what
		// they instrument and skip re-instrumenting); only the per-page
		// counters reset.
		rt.ResetCounts()
		b.runtimePool.Put(rt)
	}
}

// reset clears a page for pooling, keeping slice capacity and the DOM's
// slabs.
func (p *Page) reset() {
	p.URL = nil
	p.DOM = nil
	p.Runtime = nil
	p.Clock = 0
	p.NavAttempts = p.NavAttempts[:0]
	p.OnHandlerRegistered = nil
	p.ScriptErrors = p.ScriptErrors[:0]
	p.BlockedRequests = p.BlockedRequests[:0]
	p.browser = nil
	p.links = nil
	clear(p.resolved)
	p.host = executionHost{}
	for i := range p.handlers {
		p.handlers[i] = boundHandler{}
	}
	p.handlers = p.handlers[:0]
	// Zero the element pointers over the full capacity, not just the
	// lengths: a post-mutation rebuild may have left the lists shorter
	// than the backing arrays, and a pooled page must pin no node outside
	// its slabs — one a mutation appended, or a slab the next Load
	// outgrows and replaces.
	clear(p.interactive[:cap(p.interactive)])
	p.interactive = p.interactive[:0]
	clear(p.formFields[:cap(p.formFields)])
	p.formFields = p.formFields[:0]
	p.interactiveGen = 0
	p.interactiveOK = false
	p.formFieldsOK = false
}

// installScript executes a script's immediate statements and registers its
// handlers, reusing the cache's precompiled selectors and — when the script
// was compiled at cache-insert time — its compiled op blocks.
func (p *Page) installScript(origin string, cs *cachedScript) {
	var refs []webapi.Dispatch
	if cs.compiled != nil {
		refs = p.browser.cache.dispatch.Refs()
		p.runBody(cs.compiled.Immediate, nil, origin, refs)
	} else {
		p.runBody(nil, cs.script.Immediate, origin, nil)
	}
	for i, h := range cs.script.Handlers {
		bh := boundHandler{h: h, origin: origin}
		if cs.compiled != nil {
			bh.ops = cs.compiled.Bodies[i]
		}
		if h.Selector != "" {
			bh.sel, bh.selOK = cs.sels[i].sel, cs.sels[i].ok
		}
		p.handlers = append(p.handlers, bh)
		if p.OnHandlerRegistered != nil {
			p.OnHandlerRegistered(h.Event, h.Selector)
		}
	}
}

// fire executes handlers for an event. target filters selector-bearing
// handlers: nil means "no specific element" (load/scroll/move), in which
// case only selector-less handlers fire.
func (p *Page) fire(ev webscript.EventType, target *dom.Node) {
	var refs []webapi.Dispatch
	for i := range p.handlers {
		bh := &p.handlers[i]
		if bh.h.Event != ev {
			continue
		}
		if bh.h.Selector != "" {
			if target == nil || !bh.selOK || !bh.sel.Matches(target) {
				continue
			}
		}
		if bh.ops != nil && refs == nil {
			refs = p.browser.cache.dispatch.Refs()
		}
		p.runBody(bh.ops, bh.h.Body, bh.origin, refs)
	}
}

// Click dispatches a click on an element. Clicking an anchor with a local
// or remote href records a navigation attempt, as the crawler intercepts
// all navigation (§4.3.1).
func (p *Page) Click(el *dom.Node) {
	if el == nil || !el.Visible() {
		return
	}
	if el.Tag == "a" {
		if href, ok := el.Attr("href"); ok && href != "" {
			p.NavAttempts = append(p.NavAttempts, p.resolveURL(href))
		}
	}
	p.fire(webscript.EventClick, el)
}

// Scroll dispatches a page scroll.
func (p *Page) Scroll() { p.fire(webscript.EventScroll, nil) }

// Input dispatches text entry on a form element.
func (p *Page) Input(el *dom.Node, text string) {
	if el == nil || !el.Visible() {
		return
	}
	_ = text
	p.fire(webscript.EventInput, el)
}

// MouseMove dispatches a pointer movement.
func (p *Page) MouseMove() { p.fire(webscript.EventMove, nil) }

// AdvanceClock moves virtual time forward, firing timer handlers that come
// due (each timer fires once per elapsed interval).
func (p *Page) AdvanceClock(dt float64) {
	target := p.Clock + dt
	var refs []webapi.Dispatch
	for i := range p.handlers {
		bh := &p.handlers[i]
		if bh.h.Event != webscript.EventTimer || bh.h.Interval <= 0 {
			continue
		}
		if bh.ops != nil && refs == nil {
			refs = p.browser.cache.dispatch.Refs()
		}
		interval := float64(bh.h.Interval)
		for next := bh.lastRun + interval; next <= target; next += interval {
			p.runBody(bh.ops, bh.h.Body, bh.origin, refs)
			bh.lastRun = next
		}
	}
	p.Clock = target
}

// refreshInteractive revalidates the cached element lists against the DOM's
// mutation generation.
func (p *Page) refreshInteractive() {
	gen := p.DOM.Gen()
	if p.interactiveOK && gen == p.interactiveGen {
		return
	}
	p.interactive = p.DOM.AppendInteractive(p.interactive[:0])
	p.interactiveGen = gen
	p.interactiveOK = true
	p.formFieldsOK = false
}

// Interactive returns the page's currently visible interactive elements.
// The list is cached and invalidated by DOM mutation (structure changes or
// SetHidden); callers must not modify or retain it across mutations.
func (p *Page) Interactive() []*dom.Node {
	p.refreshInteractive()
	return p.interactive
}

// FormFields returns the visible text-entry elements (input, textarea), the
// targets the typing gremlin picks from, cached like Interactive.
func (p *Page) FormFields() []*dom.Node {
	p.refreshInteractive()
	if !p.formFieldsOK {
		p.formFields = p.formFields[:0]
		for _, el := range p.interactive {
			if el.Tag == "input" || el.Tag == "textarea" {
				p.formFields = append(p.formFields, el)
			}
		}
		p.formFieldsOK = true
	}
	return p.formFields
}

// HasParseErrors reports whether any script failed to parse (the paper's
// "syntax errors in their JavaScript code that prevented execution").
func (p *Page) HasParseErrors() bool {
	for _, se := range p.ScriptErrors {
		var werr *webscript.Error
		if errors.As(se.Err, &werr) {
			return true
		}
	}
	return false
}

// BlockingExtension adapts a blocking.Blocker (ABP engine, tracker DB, or
// their combination) to the Extension interface, applying element-hiding
// rules at DOM-ready. Hide-rule selectors compile once per profile, not
// once per page.
type BlockingExtension struct {
	// Label names the extension ("adblock-plus", "ghostery").
	Label string
	// Blocker decides request vetoes and hiding selectors.
	Blocker blocking.Blocker

	selMu      sync.Mutex
	selCache   map[string]compiledSel
	selScratch []string
	matches    []*dom.Node
}

// Name implements Extension.
func (b *BlockingExtension) Name() string { return b.Label }

// OnBeforeRequest implements Extension.
func (b *BlockingExtension) OnBeforeRequest(req blocking.Request) bool {
	return b.Blocker.ShouldBlock(req)
}

// OnDOMReady applies element-hiding rules. The selector list is gathered
// into a per-extension scratch slice (the same selectors apply to page after
// page) rather than freshly allocated each load.
func (b *BlockingExtension) OnDOMReady(p *Page) {
	b.selMu.Lock()
	defer b.selMu.Unlock()
	b.selScratch = b.Blocker.AppendHideSelectors(p.Host(), b.selScratch[:0])
	for _, raw := range b.selScratch {
		cs, ok := b.selCache[raw]
		if !ok {
			sel, err := dom.ParseSelector(raw)
			cs = compiledSel{sel: sel, ok: err == nil}
			if b.selCache == nil {
				b.selCache = make(map[string]compiledSel)
			}
			b.selCache[raw] = cs
		}
		if !cs.ok {
			continue
		}
		b.matches = p.DOM.MatchAll(cs.sel, b.matches[:0])
		for _, el := range b.matches {
			el.SetHidden(true)
		}
	}
	// Zero the scratch over its full capacity (earlier selectors may have
	// matched more nodes than the last) so it never pins a page's DOM
	// slab: the extension outlives the page, which its pool may drop or
	// whose slab a later Load may replace.
	clear(b.matches[:cap(b.matches)])
	b.matches = b.matches[:0]
}

// String renders a page summary for diagnostics.
func (p *Page) String() string {
	return fmt.Sprintf("Page(%s, %d handlers, %d nav attempts, clock=%.1fs)",
		strings.TrimSuffix(p.URL.String(), "/"), len(p.handlers), len(p.NavAttempts), p.Clock)
}
