package browser

import (
	"container/list"
	"fmt"
	"net/url"
	"strings"
	"sync"

	"repro/internal/blocking"
	"repro/internal/dom"
	"repro/internal/html"
	"repro/internal/webapi"
	"repro/internal/webscript"
	"repro/internal/webserver"
)

// Cache holds the revisit fast path's state that no browser configuration
// changes: the dispatch table compiled scripts intern into, and the LRUs of
// frozen page templates, each with its anchors and script requests resolved,
// and of parsed and compiled scripts. Browsers with different extension
// stacks can share one Cache, because extensions act only on instantiated
// pages and on requests; each browser keeps its own fetcher, extensions and
// pools. A Cache is safe for concurrent use.
type Cache struct {
	bindings *webapi.Bindings
	// dispatch interns the feature references of every script the
	// cache's browsers compile; executionHost indexes its published slice
	// per op.
	dispatch *webapi.DispatchTable

	mu        sync.Mutex
	scripts   *lruCache[*cachedScript]
	templates *lruCache[*domTemplate]
}

// NewCache creates an empty cache over the bindings.
func NewCache(b *webapi.Bindings) *Cache {
	return &Cache{
		bindings:  b,
		dispatch:  b.NewDispatchTable(),
		scripts:   newLRUCache[*cachedScript](scriptCacheCap),
		templates: newLRUCache[*domTemplate](templateCacheCap),
	}
}

// NewBrowser creates a browser profile over the cache's bindings that
// draws on the cache.
func (c *Cache) NewBrowser(f webserver.Fetcher, exts ...Extension) *Browser {
	return &Browser{Bindings: c.bindings, Fetcher: f, Extensions: exts, cache: c}
}

// scriptCacheCap bounds the parsed-script cache (external and inline
// entries); site visits are processed consecutively, so locality is high.
const scriptCacheCap = 4096

// templateCacheCap bounds the parsed-DOM template cache. Templates are only
// useful while a site's cases and rounds are in flight (a site rarely has
// more than a few dozen distinct pages), so the cap mostly bounds memory
// across the site→site transition.
const templateCacheCap = 256

// inlineKeyPrefix namespaces inline-script cache keys (keyed by source
// text) away from URL keys. The byte cannot appear in a fetched URL.
const inlineKeyPrefix = "\x00inline\x00"

// lruCache is a tiny entry-count-capped in-memory LRU — the same eviction
// discipline logstore.Cache applies to its on-disk entries, minus the
// persistence. It replaces the script cache's old wholesale map reset,
// which dropped hot cross-site entries (shared trackers, ad scripts)
// whenever the cache filled. Not goroutine-safe; callers lock.
type lruCache[V any] struct {
	cap     int
	entries map[string]*list.Element
	order   list.List // front = most recently used
}

type lruEntry[V any] struct {
	key string
	val V
}

func newLRUCache[V any](cap int) *lruCache[V] {
	c := &lruCache[V]{cap: cap, entries: make(map[string]*list.Element)}
	c.order.Init()
	return c
}

// get returns the cached value and marks it most recently used.
func (c *lruCache[V]) get(key string) (V, bool) {
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		return el.Value.(lruEntry[V]).val, true
	}
	var zero V
	return zero, false
}

// put inserts or refreshes a value, evicting the least-recently-used
// entries beyond the cap.
func (c *lruCache[V]) put(key string, val V) {
	if el, ok := c.entries[key]; ok {
		el.Value = lruEntry[V]{key, val}
		c.order.MoveToFront(el)
		return
	}
	c.entries[key] = c.order.PushFront(lruEntry[V]{key, val})
	for len(c.entries) > c.cap {
		back := c.order.Back()
		delete(c.entries, back.Value.(lruEntry[V]).key)
		c.order.Remove(back)
	}
}

// compiledSel is a handler selector parsed once at script-cache (or
// install) time instead of once per event dispatch.
type compiledSel struct {
	sel dom.Selector
	ok  bool
}

// cachedScript is one parse outcome in the script cache, with every handler
// selector precompiled (aligned with script.Handlers) and — unless the
// inserting browser has DisableScriptCompile set — the script lowered once
// to compiled ops whose feature references are interned in the cache's
// dispatch table.
type cachedScript struct {
	script   *webscript.Script
	compiled *webscript.Compiled // nil = execute via the interpreter
	sels     []compiledSel
	err      error
}

// newCachedScript parses source text, precompiles handler selectors, and
// compiles the script against the cache's dispatch table. Everything
// per-execution code needs is derived here, once per cache insert.
func (b *Browser) newCachedScript(src string) *cachedScript {
	cs := &cachedScript{}
	cs.script, cs.err = webscript.Parse(src)
	if cs.err != nil {
		return cs
	}
	cs.sels = compileSelectors(cs.script)
	if !b.DisableScriptCompile {
		cs.compiled = webscript.Compile(cs.script, b.cache.dispatch)
	}
	return cs
}

// compileSelectors parses each handler's selector once.
func compileSelectors(s *webscript.Script) []compiledSel {
	if len(s.Handlers) == 0 {
		return nil
	}
	sels := make([]compiledSel, len(s.Handlers))
	for i, h := range s.Handlers {
		if h.Selector == "" {
			continue
		}
		sel, err := dom.ParseSelector(h.Selector)
		sels[i] = compiledSel{sel: sel, ok: err == nil}
	}
	return sels
}

// templateScript is one script reference of a cached page template. An
// external script's request is built with the template: its src resolved
// against the page URL, and the page host, are identical for every clone.
type templateScript struct {
	req    blocking.Request // req.URL is empty for inline scripts
	inline string           // inline source when req.URL is empty
}

// domTemplate is one parsed page in the template cache: the frozen DOM plus
// everything about the page that is identical across visits.
type domTemplate struct {
	tpl     *dom.Template
	url     *url.URL // parsed page URL, shared read-only by all clones
	scripts []templateScript
	// links maps every anchor's href in the document to its absolute URL.
	// Never written once built, it is read without the lock; a click looks
	// up the anchor's current href, which a script may have rewritten.
	links map[string]string
}

// template returns the cached template for a URL, fetching and parsing on
// the first visit. Fetch and parse errors are not cached: a failed document
// load is fatal to the visit and the retry cost is irrelevant.
func (b *Browser) template(rawURL string) (*domTemplate, error) {
	c := b.cache
	c.mu.Lock()
	t, ok := c.templates.get(rawURL)
	c.mu.Unlock()
	if ok {
		return t, nil
	}

	doc, u, err := b.fetchDocument(rawURL)
	if err != nil {
		return nil, err
	}
	t = &domTemplate{url: u, scripts: collectScripts(doc, u), links: make(map[string]string)}
	for _, a := range doc.ElementsByTag("a") {
		if href, ok := a.Attr("href"); ok && href != "" {
			t.links[href] = resolveAgainst(u, href)
		}
	}
	t.tpl = dom.NewTemplate(doc) // freezes doc; must be the last use of it

	c.mu.Lock()
	c.templates.put(rawURL, t)
	c.mu.Unlock()
	return t, nil
}

// fetchDocument fetches and parses a page document.
func (b *Browser) fetchDocument(rawURL string) (*dom.Node, *url.URL, error) {
	res, err := b.Fetcher.Fetch(rawURL)
	if err != nil {
		return nil, nil, fmt.Errorf("browser: loading %s: %w", rawURL, err)
	}
	if res.ContentType != "text/html" {
		return nil, nil, fmt.Errorf("browser: %s is %s, not a document", rawURL, res.ContentType)
	}
	doc, err := html.Parse(res.Body)
	if err != nil {
		return nil, nil, fmt.Errorf("browser: parsing %s: %w", rawURL, err)
	}
	u, err := url.Parse(rawURL)
	if err != nil {
		return nil, nil, err
	}
	return doc, u, nil
}

// collectScripts extracts a document's script references in document
// order, with each external script's request built against the page.
func collectScripts(doc *dom.Node, base *url.URL) []templateScript {
	refs := doc.Scripts()
	if len(refs) == 0 {
		return nil
	}
	out := make([]templateScript, len(refs))
	for i, ref := range refs {
		if ref.Src == "" {
			out[i].inline = ref.Inline
			continue
		}
		out[i].req = blocking.MakeRequest(resolveAgainst(base, ref.Src), base.Hostname(), blocking.ResourceScript)
	}
	return out
}

// resolveAgainst resolves a possibly relative reference against base.
// Absolute-path references made of unambiguous bytes — the overwhelming
// majority of the synthetic web's hrefs and script sources — concatenate
// onto base's origin directly, and http(s) URLs whose host and path are
// made of them resolve to themselves; everything else takes net/url's full
// parse, resolve, and re-serialize. TestResolveAgainstFastPath pins the
// paths to identical output.
func resolveAgainst(base *url.URL, ref string) string {
	if fastRefPath(ref) && base.Scheme != "" && base.Host != "" && base.Opaque == "" && base.User == nil {
		return base.Scheme + "://" + base.Host + ref
	}
	if fastAbsURL(ref) {
		return ref
	}
	u, err := url.Parse(ref)
	if err != nil {
		return ref
	}
	return base.ResolveReference(u).String()
}

// fastAbsURL reports whether ref is an http or https URL that net/url
// resolves to itself against any base: a lower-case scheme, a host of
// letters, digits, dots and hyphens (so no userinfo or port), and a path
// fastRefPath accepts.
func fastAbsURL(ref string) bool {
	rest, ok := strings.CutPrefix(ref, "http://")
	if !ok {
		if rest, ok = strings.CutPrefix(ref, "https://"); !ok {
			return false
		}
	}
	i := 0
	for i < len(rest) && (isAlnum(rest[i]) || rest[i] == '.' || rest[i] == '-') {
		i++
	}
	return i > 0 && fastRefPath(rest[i:])
}

func isAlnum(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
}

// fastRefPath reports whether ref is an absolute-path reference that
// resolves to base's "scheme://host" + ref verbatim: not protocol-relative,
// no dot segments (resolution rewrites those), and only bytes net/url
// neither percent-escapes in a path or query nor reinterprets (no '%',
// '#', '+', ';', ':', '@', no spaces or controls).
func fastRefPath(ref string) bool {
	if len(ref) == 0 || ref[0] != '/' || len(ref) > 1 && ref[1] == '/' {
		return false
	}
	for i := 1; i < len(ref); i++ {
		switch c := ref[i]; {
		case isAlnum(c), c == '/', c == '-', c == '_', c == '~', c == '=', c == '&', c == '?':
		case c == '.':
			// Conservatively reject any '.' touching a segment boundary —
			// that covers "." and ".." segments, which resolve away.
			if ref[i-1] == '/' || i+1 == len(ref) || ref[i+1] == '/' {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// cachedScriptFor returns the script-cache entry for key, building and
// inserting it on a miss. Building happens outside the lock; concurrent
// misses may build twice and last-put wins, which is harmless (entries for
// one key are interchangeable).
func (b *Browser) cachedScriptFor(key string, build func() *cachedScript) *cachedScript {
	c := b.cache
	c.mu.Lock()
	cs, ok := c.scripts.get(key)
	c.mu.Unlock()
	if ok {
		return cs
	}
	cs = build()
	c.mu.Lock()
	c.scripts.put(key, cs)
	c.mu.Unlock()
	return cs
}

// fetchScript fetches and parses an external script with LRU caching.
func (b *Browser) fetchScript(scriptURL string) *cachedScript {
	return b.cachedScriptFor(scriptURL, func() *cachedScript {
		res, err := b.Fetcher.Fetch(scriptURL)
		if err != nil {
			return &cachedScript{err: err}
		}
		return b.newCachedScript(res.Body)
	})
}

// inlineScript parses inline script text with LRU caching keyed by the
// source text itself: the same inline script used to be re-parsed on every
// visit of its page.
func (b *Browser) inlineScript(src string) *cachedScript {
	return b.cachedScriptFor(inlineKeyPrefix+src, func() *cachedScript {
		return b.newCachedScript(src)
	})
}
