package browser

import (
	"net/url"
	"testing"

	"repro/internal/blocking"
	"repro/internal/synthweb"
)

// slowResolve is the reference resolution resolveAgainst's fast path must
// reproduce byte for byte.
func slowResolve(base *url.URL, ref string) string {
	u, err := url.Parse(ref)
	if err != nil {
		return ref
	}
	return base.ResolveReference(u).String()
}

var resolveBases = []string{
	"http://site-04.example/",
	"http://site-04.example/deep/page?x=1",
	"https://sub.tracker.example:8080/a/b",
	"http://user:pw@host.example/p", // userinfo forces the slow path
}

var resolveRefs = []string{
	"/", "/ads/banner", "/path/to/page", "/p?q=1&r=2", "/UPPER/Case_~x",
	"/trailing/", "/a?b?c", "/a=b&c",
	// Slow-path shapes: relative, dot segments, protocol-relative,
	// absolute, escapes, fragments, spaces, empties.
	"page", "../up", "/a/../b", "/a/./b", "/a/.", "/..", "//cdn.example/x",
	"http://other.example/y", "/%41", "/a#frag", "/a b", "", "/a+b", "/a;b",
	"/a:b", "/eñe", "?:", "https://x@y/z",
	// Absolute URLs, resolved to themselves when plain.
	"https://a-b.example/x?y=1", "http://H.Example/p", "HTTP://h/p", "http://h", "http://h?x",
	"http://h:80/p", "http://h//p", "http://h/a/../b", "http://h_x/p", "https://h/%41",
}

// TestResolveAgainstFastPath pins the concatenating fast path to net/url's
// full resolution across bases and references spanning both paths.
func TestResolveAgainstFastPath(t *testing.T) {
	for _, b := range resolveBases {
		base, err := url.Parse(b)
		if err != nil {
			t.Fatal(err)
		}
		for _, ref := range resolveRefs {
			got := resolveAgainst(base, ref)
			want := slowResolve(base, ref)
			if got != want {
				t.Errorf("resolveAgainst(%q, %q) = %q, want %q (fastRefPath=%v)",
					b, ref, got, want, fastRefPath(ref))
			}
		}
	}
}

// FuzzResolveAgainstFastPath hammers the same agreement with arbitrary
// reference strings.
func FuzzResolveAgainstFastPath(f *testing.F) {
	for _, ref := range resolveRefs {
		f.Add(ref)
	}
	bases := make([]*url.URL, len(resolveBases))
	for i, b := range resolveBases {
		u, err := url.Parse(b)
		if err != nil {
			f.Fatal(err)
		}
		bases[i] = u
	}
	f.Fuzz(func(t *testing.T, ref string) {
		for i, base := range bases {
			if got, want := resolveAgainst(base, ref), slowResolve(base, ref); got != want {
				t.Errorf("base %q ref %q: fast %q, slow %q", resolveBases[i], ref, got, want)
			}
		}
	})
}

// docFetcher serves fixed documents and answers every other URL with an
// error.
type docFetcher map[string]string

func (f docFetcher) Fetch(rawURL string) (synthweb.Resource, error) {
	if body, ok := f[rawURL]; ok {
		return synthweb.Resource{ContentType: "text/html", Body: body}, nil
	}
	return synthweb.Resource{}, &synthweb.ErrNotFound{URL: rawURL}
}

// requestRecorder records every script request it is asked about, and
// vetoes them all when veto is set.
type requestRecorder struct {
	veto bool
	reqs []blocking.Request
}

func (r *requestRecorder) Name() string     { return "request-recorder" }
func (r *requestRecorder) OnDOMReady(*Page) {}
func (r *requestRecorder) OnBeforeRequest(req blocking.Request) bool {
	r.reqs = append(r.reqs, req)
	return r.veto
}

// checkRequests holds every request a page's load showed its extensions to
// the one blocking.MakeRequest builds from the request's URL and the
// loaded page's host.
func checkRequests(t *testing.T, page *Page, reqs []blocking.Request) {
	t.Helper()
	for _, req := range reqs {
		want := blocking.MakeRequest(req.URL, page.Host(), blocking.ResourceScript)
		if req.PageHost != want.PageHost || req.Type != want.Type || req.Host() != want.Host() || req.ThirdParty() != want.ThirdParty() {
			t.Errorf("page %s, script %s: host %q, page host %q, third party %t; MakeRequest gives %q, %q, %t",
				page.URL, req.URL, req.Host(), req.PageHost, req.ThirdParty(), want.Host(), want.PageHost, want.ThirdParty())
		}
	}
}

// TestTemplateScriptRequests holds the script requests a template builds
// once to what blocking.MakeRequest derives at load time, on cold and warm
// loads of pages whose hosts carry a port, userinfo and upper case, and of
// the test web's home pages.
func TestTemplateScriptRequests(t *testing.T) {
	const scripts = `<html><head>
<script src="/lib.js"></script><script src="rel.js"></script><script src="../up/x.js"></script>
<script src="//CDN.Example:9090/x.js"></script><script src="http://U:pw@Tracker.EXAMPLE/t.js"></script>
<script src="https://sub.pub-01.example/s.js"></script><script src="HTTP://PUB-01.EXAMPLE:81/p.js"></script>
<script>invoke Document.createElement 1;</script>
</head><body></body></html>`
	docs := docFetcher{}
	for _, u := range []string{
		"http://pub-01.example/",
		"http://Pub-01.EXAMPLE:8080/dir/page",
		"http://user:pw@pub-02.example/a/b",
		"https://u@CDN.pub-03.example:8443/a/b?x=1",
	} {
		docs[u] = scripts
	}
	rec := &requestRecorder{veto: true}
	b := NewCache(env(t).bind).NewBrowser(docs, rec)
	for u := range docs {
		for load := 0; load < 2; load++ {
			rec.reqs = rec.reqs[:0]
			page, err := b.Load(u)
			if err != nil {
				t.Fatal(err)
			}
			if len(rec.reqs) != 7 {
				t.Fatalf("%s: %d script requests, want 7", u, len(rec.reqs))
			}
			checkRequests(t, page, rec.reqs)
			b.Release(page)
		}
	}

	e := env(t)
	rec = &requestRecorder{}
	b = e.browser(rec)
	for _, s := range e.web.Sites {
		for load := 0; load < 2; load++ {
			rec.reqs = rec.reqs[:0]
			page, err := b.Load("http://" + s.Domain + "/")
			if err != nil {
				break
			}
			checkRequests(t, page, rec.reqs)
			b.Release(page)
		}
	}
}

// TestRewrittenHrefResolvesAtClick rewrites an anchor's href after load:
// a click must record what resolveAgainst makes of the new href, whether
// or not the template's links hold it, and the next load of the page must
// record the template's resolution again.
func TestRewrittenHrefResolvesAtClick(t *testing.T) {
	e := env(t)
	b := e.browser()
	url := "http://" + e.site.Domain + "/sec1"
	page, err := b.Load(url)
	if err != nil {
		t.Fatal(err)
	}
	anchors := page.DOM.ElementsByTag("a")
	if len(anchors) < 2 {
		t.Fatalf("%s has %d anchors", url, len(anchors))
	}
	a := anchors[0]
	orig, _ := a.Attr("href")
	other, _ := anchors[1].Attr("href")
	last := func(p *Page) string { return p.NavAttempts[len(p.NavAttempts)-1] }
	for _, href := range []string{orig, "p9", "../up", "/a/./b", "//cdn.example/x", "/a?b=c", "HTTP://Other.Example/Z", "/%41", other} {
		a.SetAttr("href", href)
		page.Click(a)
		if got, want := last(page), resolveAgainst(page.URL, href); got != want {
			t.Errorf("href rewritten to %q: click recorded %q, want %q", href, got, want)
		}
	}
	b.Release(page)

	page, err = b.Load(url)
	if err != nil {
		t.Fatal(err)
	}
	page.Click(page.DOM.ElementsByTag("a")[0])
	if got, want := last(page), resolveAgainst(page.URL, orig); got != want {
		t.Errorf("after a rewrite on an earlier load, the anchor's click recorded %q, want %q", got, want)
	}
}
