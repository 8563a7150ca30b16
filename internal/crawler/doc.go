// Package crawler implements the paper's automated survey methodology
// (§4.3 of "Browser Feature Usage on the Modern Web", IMC 2016): for every
// site, repeated monkey-tested visits of a 13-page breadth-first sample of
// the site's hierarchy (1 home + 3 sections + 9 leaves), in a default
// browser profile and in profiles with content-blocking extensions
// installed, five rounds each, 30 virtual seconds of gremlins-style
// interaction per page. URL selection prefers unseen directory structure
// (§4.3.1), and the §7.3 closed-web mode authenticates members-area
// navigations.
//
// The package holds the single-visit mechanics and leaves scheduling to
// internal/pipeline, the one survey engine. Visitor (via
// Crawler.NewVisitor) builds the browser stack for one configuration and
// performs monkey-tested, BFS-sampled visits; the engine builds one Crawler
// per worker and drives one Visitor per configuration on it. Per-visit
// randomness comes only from VisitSeed, so a visit's outcome does not
// depend on which worker, or which scheduler, performs it. A Visitor keeps
// a table of the current site's URLs: each URL its visits touch gets a
// dense ID, its clean form, same-site bit and directory pattern are worked
// out once per site, and the BFS dedupes and selects on IDs.
//
// A Crawler owns one browser.Cache, and every browser it builds draws on
// it: page templates, compiled scripts and the dispatch table are shared
// by all its configurations, while each browser keeps its own extensions,
// extension shims and page and runtime pools. A Crawler per worker
// therefore means one cache per worker, one set of LRUs for all of the
// worker's configurations, and one parse of the blocker lists per worker.
//
// Crawler.HumanVisit implements the paper's external-validation protocol
// (§6.2): 90 seconds of scripted casual browsing across three pages, on
// the crawler's cache like every other browser of the crawler.
package crawler
