package dom

import (
	"fmt"
	"testing"
)

// benchTree builds a page-shaped tree of roughly n elements: a grid of divs
// each carrying a couple of attributes, a link, and a text child — the
// density the synthetic web emits.
func benchTree(n int) *Node {
	doc := NewDocument()
	htmlEl := NewElement("html")
	doc.AppendChild(htmlEl)
	body := NewElement("body")
	htmlEl.AppendChild(body)
	for i := 0; len(body.Children) < n/3; i++ {
		div := NewElement("div")
		div.SetAttr("id", fmt.Sprintf("s-%d", i))
		div.SetAttr("class", "section wrap")
		a := NewElement("a")
		a.SetAttr("href", fmt.Sprintf("/page-%d", i))
		a.AppendChild(NewText("link"))
		div.AppendChild(a)
		body.AppendChild(div)
	}
	return doc
}

// BenchmarkClone is the per-node deep copy: one Node, one attribute map,
// and one child slice allocated per tree node.
func BenchmarkClone(b *testing.B) {
	doc := benchTree(120)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		doc.Clone()
	}
}

// BenchmarkTemplateInstantiate is the arena clone the browser's template
// cache uses, with attribute maps shared copy-on-write. "fresh" allocates
// two slabs per clone regardless of page size; "reuse" overwrites the
// previous clone's slabs, as a warm page load does, and allocates nothing.
func BenchmarkTemplateInstantiate(b *testing.B) {
	tpl := NewTemplate(benchTree(120))
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tpl.Instantiate()
		}
	})
	b.Run("reuse", func(b *testing.B) {
		var s Slabs
		tpl.InstantiateInto(&s)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tpl.InstantiateInto(&s)
		}
	})
}
