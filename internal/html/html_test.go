package html

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/dom"
)

const samplePage = `<!DOCTYPE html>
<html>
<head>
  <meta charset="utf-8">
  <title>Example &amp; Co</title>
  <script src="/static/app.js"></script>
</head>
<body>
  <!-- header -->
  <div id="main" class="wrap">
    <a href="/products">Products</a>
    <a href='/about'>About</a>
    <button id="cta" disabled>Buy now</button>
    <img src="/logo.png">
    <input type="text" name=q>
  </div>
  <script>
invoke Document.createElement 2;
on click "#cta" { invoke Window.alert 1; }
  </script>
</body>
</html>`

func TestParseSamplePage(t *testing.T) {
	doc, err := Parse(samplePage)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Type != dom.DocumentNode {
		t.Fatal("root is not a document")
	}
	title := doc.ElementsByTag("title")
	if len(title) != 1 || title[0].TextContent() != "Example & Co" {
		t.Fatalf("title = %+v", title)
	}
	if got := len(doc.ElementsByTag("a")); got != 2 {
		t.Errorf("anchors = %d, want 2", got)
	}
	btn := doc.GetElementByID("cta")
	if btn == nil {
		t.Fatal("button missing")
	}
	if _, ok := btn.Attr("disabled"); !ok {
		t.Error("boolean attribute lost")
	}
	img := doc.ElementsByTag("img")
	if len(img) != 1 || img[0].AttrOr("src", "") != "/logo.png" {
		t.Error("void element img mishandled")
	}
	input := doc.ElementsByTag("input")
	if len(input) != 1 || input[0].AttrOr("name", "") != "q" {
		t.Error("unquoted attribute mishandled")
	}
}

func TestScriptExtraction(t *testing.T) {
	doc, err := Parse(samplePage)
	if err != nil {
		t.Fatal(err)
	}
	scripts := doc.Scripts()
	if len(scripts) != 2 {
		t.Fatalf("scripts = %d, want 2", len(scripts))
	}
	if scripts[0].Src != "/static/app.js" {
		t.Errorf("script 0 src = %q", scripts[0].Src)
	}
	if !strings.Contains(scripts[1].Inline, `on click "#cta"`) {
		t.Errorf("inline script content mangled: %q", scripts[1].Inline)
	}
}

func TestRawTextSwallowsMarkup(t *testing.T) {
	doc, err := Parse(`<html><body><script>if (a < b) { x = "<div>"; }</script></body></html>`)
	if err != nil {
		t.Fatal(err)
	}
	scripts := doc.Scripts()
	if len(scripts) != 1 {
		t.Fatalf("scripts = %d", len(scripts))
	}
	if !strings.Contains(scripts[1-1].Inline, `x = "<div>"`) {
		t.Errorf("raw text content mangled: %q", scripts[0].Inline)
	}
	if len(doc.ElementsByTag("div")) != 0 {
		t.Error("markup inside script leaked into the tree")
	}
}

// TestRawTextCloserOffsets holds raw-text content whose lower-case form
// changes byte length before the closer: the dotted capital I and the
// Kelvin sign lower-case to runes of other lengths, and an invalid byte to
// U+FFFD. Content must end exactly at the closer.
func TestRawTextCloserOffsets(t *testing.T) {
	for _, body := range []string{"var s=\"\u0130\";", "var s=\"\u212a\";", "var s=\"\xff\";"} {
		doc, err := Parse("<script>" + body + "</script>")
		if err != nil {
			t.Fatalf("%q: %v", body, err)
		}
		if scripts := doc.Scripts(); len(scripts) != 1 || scripts[0].Inline != body {
			t.Errorf("<script>%q</script> parsed to %+v", body, scripts)
		}
	}
}

// FuzzRawTextEnd holds the raw-text closer scan to a reference that folds
// ASCII letters only, which keeps every byte offset.
func FuzzRawTextEnd(f *testing.F) {
	for _, s := range []string{"", "x</script>", "a</SCRIPT", "</scrip", "<</STYLE>", "\u0130</Script>", "\u212a</sCRIPT>", "\xff</style", "</</script"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		folded := []byte(s)
		for i, c := range folded {
			if 'A' <= c && c <= 'Z' {
				folded[i] = c + 'a' - 'A'
			}
		}
		for name := range rawTextElements {
			if got, want := rawTextEnd(s, name), strings.Index(string(folded), "</"+name); got != want {
				t.Errorf("rawTextEnd(%q, %q) = %d, want %d", s, name, got, want)
			}
		}
	})
}

func TestCommentsPreserved(t *testing.T) {
	doc, err := Parse(`<html><body><!-- hello --><p>x</p></body></html>`)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	doc.Walk(func(n *dom.Node) bool {
		if n.Type == dom.CommentNode && strings.Contains(n.Text, "hello") {
			found = true
		}
		return true
	})
	if !found {
		t.Fatal("comment lost")
	}
}

func TestStrayCloseTagIgnored(t *testing.T) {
	doc, err := Parse(`<html><body></span><p>ok</p></body></html>`)
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.ElementsByTag("p")) != 1 {
		t.Fatal("tree corrupted by stray close tag")
	}
}

func TestImplicitCloseAtEOF(t *testing.T) {
	doc, err := Parse(`<html><body><div><p>unclosed`)
	if err != nil {
		t.Fatal(err)
	}
	p := doc.ElementsByTag("p")
	if len(p) != 1 || p[0].TextContent() != "unclosed" {
		t.Fatalf("unclosed elements mishandled: %+v", p)
	}
}

func TestSelfClosingSyntax(t *testing.T) {
	doc, err := Parse(`<html><body><custom-thing a="1"/><p>after</p></body></html>`)
	if err != nil {
		t.Fatal(err)
	}
	p := doc.ElementsByTag("p")
	if len(p) != 1 || p[0].Parent.Tag != "body" {
		t.Fatal("self-closing element swallowed following content")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		src  string
		want string
	}{
		{"<html><!-- unterminated", "unterminated comment"},
		{"<html><script>never closed", "unterminated <script>"},
		{"<div a=", "unterminated"},
		{`<div a="x`, "unterminated attribute value"},
	}
	for _, c := range cases {
		_, err := Parse(c.src)
		if err == nil {
			t.Errorf("Parse(%q) should fail", c.src)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("Parse(%q) error %q does not mention %q", c.src, err, c.want)
		}
	}
}

func TestEscapeRoundTrip(t *testing.T) {
	check := func(s string) bool {
		return Unescape(Escape(s)) == s
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRenderParseRoundTrip(t *testing.T) {
	doc, err := Parse(samplePage)
	if err != nil {
		t.Fatal(err)
	}
	out := Render(doc)
	doc2, err := Parse(out)
	if err != nil {
		t.Fatalf("re-parse failed: %v\n%s", err, out)
	}
	if doc.CountElements() != doc2.CountElements() {
		t.Fatalf("round trip changed element count: %d -> %d", doc.CountElements(), doc2.CountElements())
	}
	if len(doc.Scripts()) != len(doc2.Scripts()) {
		t.Fatal("round trip changed script count")
	}
	if doc.GetElementByID("cta") == nil || doc2.GetElementByID("cta") == nil {
		t.Fatal("round trip lost ids")
	}
}

func TestTextEscaping(t *testing.T) {
	doc := dom.NewDocument()
	p := dom.NewElement("p")
	p.AppendChild(dom.NewText(`a < b & c > "d"`))
	doc.AppendChild(p)
	out := Render(doc)
	if !strings.Contains(out, "a &lt; b &amp; c &gt;") {
		t.Errorf("text not escaped: %s", out)
	}
	doc2, err := Parse(out)
	if err != nil {
		t.Fatal(err)
	}
	if got := doc2.ElementsByTag("p")[0].TextContent(); got != `a < b & c > "d"` {
		t.Errorf("unescape round trip = %q", got)
	}
}

func TestBareLessThanInText(t *testing.T) {
	doc, err := Parse(`<html><body><p>1 < 2 always</p></body></html>`)
	if err != nil {
		t.Fatal(err)
	}
	got := doc.ElementsByTag("p")[0].TextContent()
	if !strings.Contains(got, "<") {
		t.Errorf("bare < lost: %q", got)
	}
}
