// Package browser implements the instrumented browser of the paper's §4:
// a page-load pipeline (fetch → parse → extension injection → script
// execution → event loop) over the simulated DOM, Web API dispatch layer,
// and WebScript engine.
//
// Extensions hook two points, mirroring the WebExtension surface the paper
// relies on: OnBeforeRequest may veto subresource fetches (how AdBlock Plus
// and Ghostery block), and OnDOMReady runs after the DOM exists but before
// any page script — the injection point "at the beginning of the <head>
// element" the measuring extension uses (§4.2).
//
// # The revisit fast path
//
// The survey loads every page of every site once per case per round, so the
// same URL is loaded dozens of times per worker, by one browser per
// configuration. Load is built around that revisit pattern; the mechanisms
// below (all bypassed when DisableReuse is set) make a repeat load allocate
// nothing that grows with the page.
//
// They split by what they depend on. What no configuration changes lives in
// a Cache: frozen page templates with their URLs resolved, parsed and
// compiled scripts, and the webapi.DispatchTable those scripts intern into.
// Browsers with different extension stacks can share one Cache
// (Cache.NewBrowser), because extensions act only on instantiated pages and
// on requests, never on what the cache holds. What a configuration does
// change stays on the Browser: its fetcher, its extensions, and its page
// and runtime pools, whose pooled runtimes carry that browser's extension
// shims and so must never cross to another configuration. The crawler
// shares one cache among the browsers of a survey worker, so a document or
// script is fetched, parsed and compiled once however many configurations
// visit it, and memory holds one set of LRUs per worker, not one per
// configuration. New builds a browser with a private cache.
//
//   - DOM template cache (Cache). The first load of a URL parses the
//     document once into a frozen dom.Template; every load — including the
//     first — then arena-clones the template (all nodes into one slab, all
//     child slices into a second, attribute maps shared copy-on-write)
//     instead of re-fetching and re-parsing. Clones are fully independent:
//     mutating one page's tree, Hidden flags, or attributes never leaks
//     into the template, another page, or the next page cloned into its
//     slabs, in this configuration or any other sharing the cache.
//     Templates and parsed scripts live in LRU caches, so a hot cross-site
//     script is never dropped mid-survey.
//
//   - Page/Runtime pooling (Browser). Browser.Release(page) returns a
//     finished page and its webapi.Runtime to the browser's sync.Pools. The
//     page is reset field by field (slices keep their capacity) but keeps
//     its DOM's node slabs: the next load of the pooled page clones its
//     document into them when they are large enough
//     (dom.Template.InstantiateInto), so a warm load allocates nothing
//     that grows with the page. The runtime keeps its patches and
//     watchpoints but zeroes its per-page counters
//     (webapi.Runtime.ResetCounts), so the next load skips re-shimming the
//     whole corpus. Release is safe once the caller has drained everything
//     it needs from the page (measurer counts taken, navigation attempts
//     copied out); after Release the page must not be touched or Released
//     again — like any pooled object, a stale second Release is only
//     harmless while the page has not been reissued by a Load. The same
//     holds for its DOM: Release ends the lifetime of every node, which a
//     later Load overwrites. Releasing nil or a page of another browser is
//     a no-op.
//
//   - Precompiled selectors. Handler selectors compile once per bound
//     handler at install time (never per event dispatch), blocking
//     extensions compile each hide rule once per profile, and the page
//     caches its Interactive/FormFields lists, invalidated by the DOM's
//     mutation generation (dom.Node.Gen).
//
//   - Compiled script dispatch (Cache). Script-cache entries carry the
//     compiled form of the parsed script (webscript.Compile): every
//     statement's "Interface.member" reference is interned once into the
//     cache's webapi.DispatchTable, so executing a statement indexes a
//     published []webapi.Dispatch — with the feature pointer and any error
//     outcome precomputed — instead of resolving two map-keyed strings per
//     call. Immediate code and handler bodies run through
//     webscript.ExecuteOps. DisableScriptCompile keeps execution on the AST
//     interpreter, the differential oracle
//     (TestCompiledScriptMatchesInterpreter).
//
//   - URLs resolved per template (Cache). A template resolves every anchor
//     href once, into a read-only map that clicks consult, and builds every
//     external script's blocking.Request, so a warm load or an anchor
//     click parses no URL. Other references, such as script navigation
//     targets or an href a script rewrote, resolve once per page.
//     Unambiguous references skip net/url (TestResolveAgainstFastPath
//     pins the fast and slow paths byte for byte).
//
// Correctness contract for the fast path: extensions must not structurally
// add or remove script elements at DOMReady (hiding is fine — script
// execution ignores visibility), and an extension that instruments
// Page.Runtime must mark it via webapi.Runtime.MarkInstrumented and skip
// re-instrumenting a runtime it already owns, because pooled runtimes
// return with shims intact. Both in-tree measurers comply. Survey logs are
// byte-identical with the fast path on or off (test-enforced), and
// TestSharedCacheIsolatesConfigurations holds browsers sharing a cache to
// what each sees with a private one.
package browser
