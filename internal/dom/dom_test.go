package dom

import (
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

// buildTestTree constructs:
//
//	<html><head></head><body>
//	  <div id="main" class="wrap content">
//	    <a href="/one">one</a>
//	    <a href="/two" class="nav">two</a>
//	    <button id="go">Go</button>
//	    <input>
//	  </div>
//	  <div id="ads" class="ad-banner"><a href="/ad">ad</a></div>
//	</body></html>
func buildTestTree() *Node {
	doc := NewDocument()
	htmlEl := NewElement("html")
	doc.AppendChild(htmlEl)
	head := NewElement("head")
	body := NewElement("body")
	htmlEl.AppendChild(head)
	htmlEl.AppendChild(body)

	main := NewElement("div")
	main.SetAttr("id", "main")
	main.SetAttr("class", "wrap content")
	body.AppendChild(main)

	a1 := NewElement("a")
	a1.SetAttr("href", "/one")
	a1.AppendChild(NewText("one"))
	main.AppendChild(a1)

	a2 := NewElement("a")
	a2.SetAttr("href", "/two")
	a2.SetAttr("class", "nav")
	a2.AppendChild(NewText("two"))
	main.AppendChild(a2)

	btn := NewElement("button")
	btn.SetAttr("id", "go")
	btn.AppendChild(NewText("Go"))
	main.AppendChild(btn)

	main.AppendChild(NewElement("input"))

	ads := NewElement("div")
	ads.SetAttr("id", "ads")
	ads.SetAttr("class", "ad-banner")
	adLink := NewElement("a")
	adLink.SetAttr("href", "/ad")
	ads.AppendChild(adLink)
	body.AppendChild(ads)

	return doc
}

func TestTreeNavigation(t *testing.T) {
	doc := buildTestTree()
	main := doc.GetElementByID("main")
	if main == nil || main.Tag != "div" {
		t.Fatal("GetElementByID(main) failed")
	}
	if got := len(doc.ElementsByTag("a")); got != 3 {
		t.Fatalf("got %d anchors, want 3", got)
	}
	if main.Parent.Tag != "body" {
		t.Errorf("main parent = %s, want body", main.Parent.Tag)
	}
}

func TestSelectors(t *testing.T) {
	doc := buildTestTree()
	cases := []struct {
		sel  string
		want int
	}{
		{"a", 3},
		{"#main", 1},
		{".nav", 1},
		{"a.nav", 1},
		{"div", 2},
		{"div.ad-banner", 1},
		{"div.wrap.content", 1},
		{"span", 0},
		{"a#missing", 0},
		{"*", 10},
	}
	for _, c := range cases {
		if got := len(doc.QuerySelectorAll(c.sel)); got != c.want {
			t.Errorf("QuerySelectorAll(%q) = %d matches, want %d", c.sel, got, c.want)
		}
	}
	if el := doc.QuerySelector("button#go"); el == nil || el.ID() != "go" {
		t.Error("QuerySelector(button#go) failed")
	}
	if el := doc.QuerySelector("nope"); el != nil {
		t.Error("QuerySelector(nope) should be nil")
	}
}

func TestParseSelectorErrors(t *testing.T) {
	for _, bad := range []string{"", "div > a", "a[href]", "div .x"} {
		if _, err := ParseSelector(bad); err == nil {
			t.Errorf("ParseSelector(%q) should fail", bad)
		}
	}
}

func TestInsertRemove(t *testing.T) {
	doc := buildTestTree()
	main := doc.GetElementByID("main")
	ref := main.Children[1]
	el := NewElement("span")
	if err := main.InsertBefore(el, ref); err != nil {
		t.Fatal(err)
	}
	if main.Children[1] != el {
		t.Fatal("InsertBefore misplaced the node")
	}
	if el.Parent != main {
		t.Fatal("InsertBefore did not set parent")
	}
	main.RemoveChild(el)
	if el.Parent != nil || main.Children[1] != ref {
		t.Fatal("RemoveChild failed")
	}
	if err := main.InsertBefore(el, NewElement("q")); err == nil {
		t.Fatal("InsertBefore with foreign ref should fail")
	}
	// nil ref appends.
	if err := main.InsertBefore(el, nil); err != nil {
		t.Fatal(err)
	}
	if main.Children[len(main.Children)-1] != el {
		t.Fatal("InsertBefore(nil) did not append")
	}
}

func TestAppendChildReparents(t *testing.T) {
	doc := buildTestTree()
	main := doc.GetElementByID("main")
	ads := doc.GetElementByID("ads")
	link := ads.Children[0]
	main.AppendChild(link)
	if link.Parent != main {
		t.Fatal("AppendChild did not reparent")
	}
	if len(ads.Children) != 0 {
		t.Fatal("AppendChild did not detach from old parent")
	}
}

func TestCloneIndependence(t *testing.T) {
	doc := buildTestTree()
	cp := doc.Clone()
	if cp.CountElements() != doc.CountElements() {
		t.Fatal("clone element count differs")
	}
	cp.GetElementByID("main").SetAttr("id", "changed")
	if doc.GetElementByID("main") == nil {
		t.Fatal("mutating clone affected original")
	}
	if cp.Parent != nil {
		t.Fatal("clone should be detached")
	}
}

func TestHiddenAndVisibility(t *testing.T) {
	doc := buildTestTree()
	ads := doc.GetElementByID("ads")
	ads.Hidden = true
	adLink := ads.Children[0]
	if adLink.Visible() {
		t.Fatal("child of hidden element should be invisible")
	}
	links := doc.Links()
	for _, href := range links {
		if href == "/ad" {
			t.Fatal("Links returned hidden anchor")
		}
	}
	if len(links) != 2 {
		t.Fatalf("Links = %v, want 2 visible", links)
	}
	inter := doc.Interactive()
	for _, el := range inter {
		if el.ID() == "ads" || (el.Tag == "a" && el.AttrOr("href", "") == "/ad") {
			t.Fatal("Interactive returned hidden element")
		}
	}
	// 2 visible anchors + button + input = 4
	if len(inter) != 4 {
		t.Fatalf("Interactive = %d elements, want 4", len(inter))
	}
}

func TestInteractiveDataAction(t *testing.T) {
	doc := buildTestTree()
	div := NewElement("div")
	div.SetAttr("data-action", "expand")
	doc.Body().AppendChild(div)
	found := false
	for _, el := range doc.Interactive() {
		if el == div {
			found = true
		}
	}
	if !found {
		t.Fatal("data-action element not interactive")
	}
}

func TestTextContent(t *testing.T) {
	doc := buildTestTree()
	if got := doc.GetElementByID("main").TextContent(); got != "onetwoGo" {
		t.Errorf("TextContent = %q", got)
	}
}

func TestLinksDeduplicated(t *testing.T) {
	doc := buildTestTree()
	dup := NewElement("a")
	dup.SetAttr("href", "/one")
	doc.Body().AppendChild(dup)
	links := doc.Links()
	count := 0
	for _, l := range links {
		if l == "/one" {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("duplicate hrefs not deduplicated: %v", links)
	}
}

func TestScripts(t *testing.T) {
	doc := buildTestTree()
	ext := NewElement("script")
	ext.SetAttr("src", "/app.js")
	doc.Head().AppendChild(ext)
	inline := NewElement("script")
	inline.AppendChild(NewText("invoke Document.createElement 1;"))
	doc.Body().AppendChild(inline)

	scripts := doc.Scripts()
	if len(scripts) != 2 {
		t.Fatalf("got %d scripts, want 2", len(scripts))
	}
	if scripts[0].Src != "/app.js" || scripts[0].Inline != "" {
		t.Errorf("script 0 = %+v", scripts[0])
	}
	if scripts[1].Src != "" || !strings.Contains(scripts[1].Inline, "createElement") {
		t.Errorf("script 1 = %+v", scripts[1])
	}
}

func TestPath(t *testing.T) {
	doc := buildTestTree()
	btn := doc.GetElementByID("go")
	if got := btn.Path(); got != "html/body/div/button" {
		t.Errorf("Path = %q", got)
	}
}

func TestAttrOrder(t *testing.T) {
	el := NewElement("div")
	el.SetAttr("b", "1")
	el.SetAttr("a", "2")
	el.SetAttr("b", "3") // overwrite keeps position
	names := el.AttrNames()
	if len(names) != 2 || names[0] != "b" || names[1] != "a" {
		t.Errorf("AttrNames = %v", names)
	}
	if v, _ := el.Attr("B"); v != "3" {
		t.Errorf("attr lookup case-insensitive failed: %q", v)
	}
}

func TestWalkStops(t *testing.T) {
	doc := buildTestTree()
	visits := 0
	doc.Walk(func(n *Node) bool {
		visits++
		return visits < 3
	})
	if visits != 3 {
		t.Errorf("walk visited %d nodes after stop, want 3", visits)
	}
}

func TestSelectorMatchProperty(t *testing.T) {
	// Property: an element always matches the selector synthesized from
	// its own tag, id, and classes.
	tags := []string{"div", "a", "span", "section"}
	check := func(tagIdx uint8, id string, hasClass bool) bool {
		id = sanitizeIdent(id)
		el := NewElement(tags[int(tagIdx)%len(tags)])
		sel := el.Tag
		if id != "" {
			el.SetAttr("id", id)
			sel += "#" + id
		}
		if hasClass {
			el.SetAttr("class", "x")
			sel += ".x"
		}
		parsed, err := ParseSelector(sel)
		if err != nil {
			return false
		}
		return parsed.Matches(el)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func sanitizeIdent(s string) string {
	var b strings.Builder
	for _, r := range s {
		if r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' {
			b.WriteRune(r)
		}
	}
	if b.Len() > 8 {
		return b.String()[:8]
	}
	return b.String()
}

func TestNodeString(t *testing.T) {
	doc := buildTestTree()
	if got := doc.String(); got != "#document" {
		t.Errorf("document String = %q", got)
	}
	main := doc.GetElementByID("main")
	s := main.String()
	if !strings.Contains(s, `<div`) || !strings.Contains(s, `id="main"`) {
		t.Errorf("element String = %q", s)
	}
}

// treeShape renders a subtree's full structure (types, tags, text, hidden
// flags, and attributes in first-set order) for deep-equality checks.
func treeShape(n *Node) string {
	var b strings.Builder
	var walk func(*Node, int)
	walk = func(c *Node, depth int) {
		b.WriteString(strings.Repeat(" ", depth))
		b.WriteString(c.String())
		if c.Hidden {
			b.WriteString("[hidden]")
		}
		for _, name := range c.AttrNames() {
			v, _ := c.Attr(name)
			b.WriteString(" " + name + "=" + v)
		}
		b.WriteString("\n")
		for _, k := range c.Children {
			walk(k, depth+1)
		}
	}
	walk(n, 0)
	return b.String()
}

func TestTemplateInstantiateEqualsClone(t *testing.T) {
	doc := buildTestTree()
	want := treeShape(doc)
	total := 0
	doc.Walk(func(*Node) bool { total++; return true })
	tpl := NewTemplate(doc)
	if tpl.NumNodes() != total {
		t.Errorf("NumNodes = %d, want %d", tpl.NumNodes(), total)
	}
	inst := tpl.Instantiate()
	if got := treeShape(inst); got != want {
		t.Errorf("instantiated tree differs:\n got:\n%s\nwant:\n%s", got, want)
	}
	// Parent links must be internally consistent.
	inst.Walk(func(c *Node) bool {
		for _, k := range c.Children {
			if k.Parent != c {
				t.Errorf("child %s has wrong parent", k)
			}
		}
		return true
	})
	if inst.Parent != nil {
		t.Error("instantiated root has a parent")
	}
}

func TestTemplateCloneIndependence(t *testing.T) {
	tpl := NewTemplate(buildTestTree())
	ref := treeShape(tpl.Root())

	a, b := tpl.Instantiate(), tpl.Instantiate()

	// Structural mutation of one clone.
	main := a.GetElementByID("main")
	main.AppendChild(NewElement("span"))
	main.RemoveChild(main.Children[0])

	// Visibility mutation of one clone.
	a.GetElementByID("ads").SetHidden(true)

	// Attribute mutation of one clone: both rewriting an existing
	// attribute and adding a new one trigger copy-on-write.
	btn := a.GetElementByID("go")
	btn.SetAttr("id", "stop")
	btn.SetAttr("data-x", "1")

	if got := treeShape(b); got != treeShape(tpl.Instantiate()) {
		t.Error("mutating clone A leaked into clone B")
	}
	if got := treeShape(tpl.Root()); got != ref {
		t.Errorf("mutating a clone leaked into the template:\n got:\n%s\nwant:\n%s", got, ref)
	}
	if b.GetElementByID("go") == nil || b.GetElementByID("stop") != nil {
		t.Error("clone B sees clone A's attribute write")
	}
	if !a.GetElementByID("main").HasClass("wrap") {
		t.Error("clone A lost shared attributes after unrelated writes")
	}
}

func TestTemplateConcurrentInstantiate(t *testing.T) {
	tpl := NewTemplate(buildTestTree())
	want := treeShape(tpl.Root())
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				inst := tpl.Instantiate()
				// Mutate every clone: under -race this proves clones
				// share no mutable state with each other or the template.
				inst.GetElementByID("main").SetAttr("data-g", "x")
				inst.GetElementByID("ads").SetHidden(true)
				inst.GetElementByID("go").SetAttr("id", "stop")
				if inst.GetElementByID("stop") == nil {
					t.Errorf("goroutine %d: attribute write lost", g)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if got := treeShape(tpl.Root()); got != want {
		t.Error("concurrent clone mutation leaked into the template")
	}
}

func TestGenTracksMutations(t *testing.T) {
	doc := buildTestTree()
	g0 := doc.Gen()
	main := doc.GetElementByID("main")

	main.SetHidden(true)
	if doc.Gen() == g0 {
		t.Error("SetHidden did not bump Gen")
	}
	g1 := doc.Gen()
	main.SetHidden(true) // no-op write
	if doc.Gen() != g1 {
		t.Error("equal-value SetHidden bumped Gen")
	}
	main.AppendChild(NewElement("em"))
	if doc.Gen() == g1 {
		t.Error("AppendChild did not bump Gen")
	}
	g2 := doc.Gen()
	main.RemoveChild(main.Children[len(main.Children)-1])
	if doc.Gen() == g2 {
		t.Error("RemoveChild did not bump Gen")
	}
	// Gen is visible from any node of the tree.
	if main.Gen() != doc.Gen() {
		t.Error("Gen differs between root and descendant")
	}
}

func TestMatchAllMatchesQuerySelectorAll(t *testing.T) {
	doc := buildTestTree()
	for _, s := range []string{"a", "div.ad-banner", "#go", ".nav"} {
		sel, err := ParseSelector(s)
		if err != nil {
			t.Fatal(err)
		}
		got := doc.MatchAll(sel, nil)
		want := doc.QuerySelectorAll(s)
		if len(got) != len(want) {
			t.Fatalf("MatchAll(%q) = %d nodes, QuerySelectorAll = %d", s, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("MatchAll(%q)[%d] differs", s, i)
			}
		}
	}
}

// attrByFold is Attr as it was before the exact-name scan: it lower-cases
// the name on every call. It is the reference for
// TestAttrLookupsMatchReference.
func attrByFold(n *Node, name string) (string, bool) {
	if len(n.attrs) == 0 {
		return "", false
	}
	name = strings.ToLower(name)
	for i := range n.attrs {
		if n.attrs[i].name == name {
			return n.attrs[i].value, true
		}
	}
	return "", false
}

// hasClassByFields is HasClass as it was before the in-place scan: a
// search of the class attribute's strings.Fields.
func hasClassByFields(n *Node, c string) bool {
	list, _ := attrByFold(n, "class")
	for _, have := range strings.Fields(list) {
		if have == c {
			return true
		}
	}
	return false
}

// TestAttrLookupsMatchReference holds Attr and HasClass to the folding and
// splitting references over upper-case, non-ASCII and invalid UTF-8 names
// and over class lists split by every kind of space strings.Fields knows,
// U+0085 and U+00A0 included.
func TestAttrLookupsMatchReference(t *testing.T) {
	names := []string{
		"id", "ID", "Id", "class", "CLASS", "data-action", "Data-Action",
		"\u00e4rger", "\u00c4RGER", // ärger, ÄRGER
		"k", "K", "\u212a", // Kelvin sign, which lower-cases to k
		"\u00df", "\u1e9e", // ß and capital ẞ
		"\u0130d", "i\u0307d", // İd and what it lower-cases to
		"\u01c5", "\u01c6", "\u03c3", "\u03a3", // ǅ ǆ σ Σ
		"\xff", "\ufffd", "", // an invalid byte and what folding makes of it
	}
	pieces := []string{
		"a", "B", "wrap", "\u00c4rger", "x\u200by", "\xc2", "\xa0", "\xff",
		" ", "\t", "\n", "\r", "\v", "\f", "\u0085", "\u00a0", "\u3000", "  ",
	}
	rng := rand.New(rand.NewSource(1))
	word := func() string {
		var b strings.Builder
		for k := rng.Intn(5); k >= 0; k-- {
			b.WriteString(pieces[rng.Intn(len(pieces))])
		}
		return b.String()
	}
	for i := 0; i < 3000; i++ {
		el := NewElement("div")
		for k := rng.Intn(4); k > 0; k-- {
			el.SetAttr(names[rng.Intn(len(names))], word())
		}
		classes := word()
		if rng.Intn(4) > 0 {
			el.SetAttr("Class", classes)
		}
		for _, name := range names {
			gv, gok := el.Attr(name)
			wv, wok := attrByFold(el, name)
			if gv != wv || gok != wok {
				t.Fatalf("Attr(%q) on %v = %q, %t; reference %q, %t", name, el.attrs, gv, gok, wv, wok)
			}
		}
		queries := append(strings.Fields(classes), "", word(), word())
		for _, c := range queries {
			if got, want := el.HasClass(c), hasClassByFields(el, c); got != want {
				t.Fatalf("HasClass(%q) on class %q = %t; reference %t", c, classes, got, want)
			}
		}
	}
}
