package browser

import (
	"fmt"
	"testing"

	"repro/internal/blocking"
	"repro/internal/dom"
	"repro/internal/synthweb"
)

// sameTree reports the first difference between two trees in node types,
// tags, text, attributes in order, Hidden flags, parent links and child
// order, or "" when they match.
func sameTree(got, want *dom.Node) string {
	var walk func(g, w *dom.Node, path string) string
	walk = func(g, w *dom.Node, path string) string {
		switch {
		case g.Type != w.Type || g.Tag != w.Tag || g.Text != w.Text:
			return fmt.Sprintf("%s: node %v, want %v", path, g, w)
		case g.Hidden != w.Hidden:
			return fmt.Sprintf("%s: hidden=%t, want %t", path, g.Hidden, w.Hidden)
		case len(g.Children) != len(w.Children):
			return fmt.Sprintf("%s: %d children, want %d", path, len(g.Children), len(w.Children))
		}
		gn, wn := g.AttrNames(), w.AttrNames()
		if fmt.Sprint(gn) != fmt.Sprint(wn) {
			return fmt.Sprintf("%s: attributes %v, want %v", path, gn, wn)
		}
		for _, name := range wn {
			if gv, wv := g.AttrOr(name, ""), w.AttrOr(name, ""); gv != wv {
				return fmt.Sprintf("%s: %s=%q, want %q", path, name, gv, wv)
			}
		}
		for i, gc := range g.Children {
			p := fmt.Sprintf("%s/%d", path, i)
			if gc.Parent != g {
				return p + ": wrong parent link"
			}
			if d := walk(gc, w.Children[i], p); d != "" {
				return d
			}
		}
		return ""
	}
	if got.Parent != nil {
		return "root has a parent"
	}
	return walk(got, want, "")
}

// scribble mutates every node of a tree, its attributes and Hidden flags,
// and the body's children, the way scripts or extensions could before the
// page is released.
func scribble(root *dom.Node) {
	var nodes []*dom.Node
	root.Walk(func(n *dom.Node) bool {
		nodes = append(nodes, n)
		return true
	})
	for _, n := range nodes {
		n.SetAttr("data-scribbled", "1")
		n.SetAttr("id", "scribbled")
		n.SetHidden(true)
	}
	if body := root.Body(); body != nil && len(body.Children) > 0 {
		body.RemoveChild(body.Children[0])
		ins := dom.NewElement("ins")
		ins.AppendChild(dom.NewText("inserted"))
		body.AppendChild(ins)
	}
}

// TestRecycledDOMIsolation loads pages into the slabs of released ones in a
// browser whose blocking extension hides elements: the smallest home page,
// then the largest one on which the extension hides something (outgrowing
// the recycled slab), then the smaller page again into the larger slab,
// then the large page again. Every page is scribbled over before its
// release. Each loaded tree must equal the one a DisableReuse browser
// builds for its URL, so nothing of a released page may survive into the
// next.
func TestRecycledDOMIsolation(t *testing.T) {
	e := env(t)
	list, err := blocking.ParseList("easylist", e.web.FilterListText)
	if err != nil {
		t.Fatal(err)
	}
	abp := blocking.NewEngine(list)
	hiding := func() Extension { return &BlockingExtension{Label: "adblock-plus", Blocker: abp} }

	ref := e.browser(hiding())
	ref.DisableReuse = true
	want := make(map[string]*dom.Node)
	var large, small string
	var largeN, smallN int
	for _, s := range e.web.Sites {
		if s.Failure != synthweb.FailNone {
			continue
		}
		url := "http://" + s.Domain + "/"
		p, err := ref.Load(url)
		if err != nil {
			continue
		}
		want[url] = p.DOM
		n, hidden := 0, 0
		p.DOM.Walk(func(c *dom.Node) bool {
			n++
			if c.Hidden {
				hidden++
			}
			return true
		})
		if hidden > 0 && n > largeN {
			large, largeN = url, n
		}
		if smallN == 0 || n < smallN {
			small, smallN = url, n
		}
	}
	if large == "" || smallN >= largeN {
		t.Fatalf("no pair of pages to recycle between: largest hiding page %d nodes, smallest %d", largeN, smallN)
	}

	b := e.browser(hiding())
	for round := 0; round < 3; round++ {
		for _, url := range []string{small, large, small, large} {
			p, err := b.Load(url)
			if err != nil {
				t.Fatal(err)
			}
			if d := sameTree(p.DOM, want[url]); d != "" {
				t.Errorf("round %d, %s: %s", round, url, d)
			}
			scribble(p.DOM)
			b.Release(p)
		}
	}
}
