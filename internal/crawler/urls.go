package crawler

import (
	"net/url"
	"strings"

	"repro/internal/alexa"
)

// urlTable interns the URLs the visits of one site touch: navigation
// attempts, their clean forms and the pages the BFS loads. What the crawl
// derives from a URL is computed once per site, when first asked for, and
// the table is reset for the next site, so it holds one site's URLs.
type urlTable struct {
	ranking *alexa.Ranking
	site    string           // the domain same-site checks compare with
	ids     map[string]int32 // URL → ID, an index into urls
	urls    []urlEntry
	dirs    map[string]int32 // directory pattern → index into dirSeen
	dirSeen []bool           // this visit selected a URL in the directory
	page    uint32           // counts the pages candidates has listed
}

// urlEntry is one interned URL; clean and dir start unresolved.
type urlEntry struct {
	url     string
	clean   int32  // ID of the URL's scheme, host and path; -1 if it does not parse or leaves the site
	dir     int32  // index of the URL's directory pattern in dirSeen
	page    uint32 // the last page whose candidates listed the URL
	visited bool   // this visit loaded or selected the URL
}

const unresolved = -2

// begin starts a visit of site: it drops the URLs of any other site, and
// forgets what the last visit visited and selected.
func (t *urlTable) begin(ranking *alexa.Ranking, site string) {
	if site != t.site {
		if t.ids == nil {
			t.ids, t.dirs = make(map[string]int32), make(map[string]int32)
		}
		clear(t.ids)
		clear(t.dirs)
		t.ranking, t.site = ranking, site
		t.urls, t.dirSeen, t.page = t.urls[:0], t.dirSeen[:0], 0
	}
	for i := range t.urls {
		t.urls[i].visited = false
	}
	clear(t.dirSeen)
}

func (t *urlTable) id(u string) int32 {
	if id, ok := t.ids[u]; ok {
		return id
	}
	id := int32(len(t.urls))
	t.ids[u] = id
	t.urls = append(t.urls, urlEntry{url: u, clean: unresolved, dir: unresolved})
	return id
}

// candidates appends to out the IDs of the distinct clean forms of navs
// that stay on the site, in first-seen order (§4.3.1).
func (t *urlTable) candidates(navs []string, out []int32) []int32 {
	t.page++
	for _, raw := range navs {
		c := t.clean(t.id(raw))
		if c < 0 || t.urls[c].page == t.page {
			continue
		}
		t.urls[c].page = t.page
		out = append(out, c)
	}
	return out
}

func (t *urlTable) clean(id int32) int32 {
	if c := t.urls[id].clean; c != unresolved {
		return c
	}
	c := int32(-1)
	if u, err := url.Parse(t.urls[id].url); err == nil && t.ranking.SameSite(u.Hostname(), t.site) {
		c = t.id(u.Scheme + "://" + u.Host + u.Path)
	}
	t.urls[id].clean = c
	return c
}

// dir returns the index in dirSeen of the URL's directory pattern: its
// host and its path without the final segment.
func (t *urlTable) dir(id int32) int32 {
	if d := t.urls[id].dir; d != unresolved {
		return d
	}
	p := t.urls[id].url
	if u, err := url.Parse(p); err == nil {
		path := u.Path
		if i := strings.LastIndexByte(path, '/'); i >= 0 {
			path = path[:i]
		}
		p = u.Hostname() + path
	}
	d, ok := t.dirs[p]
	if !ok {
		d = int32(len(t.dirSeen))
		t.dirs[p] = d
		t.dirSeen = append(t.dirSeen, false)
	}
	t.urls[id].dir = d
	return d
}

// take marks a URL visited and its directory pattern seen.
func (t *urlTable) take(id int32) {
	t.urls[id].visited = true
	t.dirSeen[t.dir(id)] = true
}
