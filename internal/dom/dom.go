package dom

import (
	"fmt"
	"sort"
	"strings"
	"unicode"
)

// NodeType distinguishes tree node kinds.
type NodeType int

const (
	DocumentNode NodeType = iota
	ElementNode
	TextNode
	CommentNode
)

// Node is one tree node. The zero value is not useful; use the New*
// constructors.
type Node struct {
	Type     NodeType
	Tag      string // lower-case element tag, for ElementNode
	Text     string // for TextNode and CommentNode
	Parent   *Node
	Children []*Node

	// Hidden marks elements suppressed by element-hiding filter rules
	// (AdBlock Plus "##" rules); hidden elements are invisible to the
	// monkey-testing horde. Prefer SetHidden, which also invalidates
	// cached tree queries (see Gen); writing the field directly still
	// works but bypasses invalidation.
	Hidden bool

	// attrs holds the attributes in first-set order. Elements carry a
	// handful at most, so a linear slice beats a map on both lookup time
	// and allocation count (the parser creates hundreds of thousands of
	// attributed elements per crawl).
	attrs []attrPair

	// sharedAttrs marks attrs as borrowed from a Template (or another
	// clone); SetAttr copies the slice before the first write so
	// mutations never leak across clones.
	sharedAttrs bool

	// gen counts structural and visibility mutations of the tree. It is
	// maintained on the root node only; see Gen.
	gen uint64
}

// attrPair is one attribute; the Node keeps them in first-set order.
type attrPair struct{ name, value string }

// NewDocument returns an empty document root.
func NewDocument() *Node { return &Node{Type: DocumentNode} }

// NewElement returns a detached element with the given tag.
func NewElement(tag string) *Node {
	return &Node{Type: ElementNode, Tag: strings.ToLower(tag)}
}

// NewText returns a detached text node.
func NewText(text string) *Node { return &Node{Type: TextNode, Text: text} }

// NewComment returns a detached comment node.
func NewComment(text string) *Node { return &Node{Type: CommentNode, Text: text} }

// SetAttr sets an attribute, preserving first-set order for serialization.
func (n *Node) SetAttr(name, value string) {
	name = strings.ToLower(name)
	if n.sharedAttrs {
		// Copy-on-write: the attribute storage is shared with a template
		// (and its other clones), so the first write — update or append —
		// takes a private copy.
		n.attrs = append(make([]attrPair, 0, len(n.attrs)+1), n.attrs...)
		n.sharedAttrs = false
	}
	for i := range n.attrs {
		if n.attrs[i].name == name {
			n.attrs[i].value = value
			n.bumpGen()
			return
		}
	}
	n.attrs = append(n.attrs, attrPair{name, value})
	// Attributes feed cached views too (data-action drives Interactive),
	// so attribute writes move the generation. Cheap in the common case:
	// the parser sets attributes on still-detached elements (root = self).
	n.bumpGen()
}

// Attr returns the attribute value and whether it is present. Names match
// case-insensitively, as SetAttr stores them lower-cased.
func (n *Node) Attr(name string) (string, bool) {
	if v, ok := n.attr(name); ok {
		return v, true
	}
	// Stored names are lower-case (SetAttr folds them), so folding can
	// only help a name it changes. For the lower-case constants callers
	// pass, strings.ToLower returns the name itself without allocating.
	if len(n.attrs) > 0 {
		if lower := strings.ToLower(name); lower != name {
			return n.attr(lower)
		}
	}
	return "", false
}

// attr is Attr without case folding.
func (n *Node) attr(name string) (string, bool) {
	for i := range n.attrs {
		if n.attrs[i].name == name {
			return n.attrs[i].value, true
		}
	}
	return "", false
}

// AttrOr returns the attribute value or a default.
func (n *Node) AttrOr(name, def string) string {
	if v, ok := n.Attr(name); ok {
		return v
	}
	return def
}

// AttrNames returns the attribute names in first-set order.
func (n *Node) AttrNames() []string {
	out := make([]string, len(n.attrs))
	for i := range n.attrs {
		out[i] = n.attrs[i].name
	}
	return out
}

// ID returns the element's id attribute.
func (n *Node) ID() string { return n.AttrOr("id", "") }

// HasClass reports whether the element carries the class: whether it is
// one of the names strings.Fields would split the class attribute into,
// found by scanning the attribute in place.
func (n *Node) HasClass(c string) bool {
	list, _ := n.attr("class")
	start := -1 // byte offset of the current class name; -1 between names
	for i, r := range list {
		switch {
		case unicode.IsSpace(r):
			if start >= 0 && list[start:i] == c {
				return true
			}
			start = -1
		case start < 0:
			start = i
		}
	}
	return start >= 0 && list[start:] == c
}

// Root returns the topmost ancestor of n (n itself when detached).
func (n *Node) Root() *Node {
	for n.Parent != nil {
		n = n.Parent
	}
	return n
}

// Gen returns the mutation generation of the node's tree: a counter bumped
// by every structural change (AppendChild, InsertBefore, RemoveChild) and
// every SetHidden on any node of the tree. Callers caching derived views of
// the tree (Interactive lists, query results) can compare generations
// instead of re-walking.
func (n *Node) Gen() uint64 { return n.Root().gen }

// bumpGen records a mutation of the tree containing n.
func (n *Node) bumpGen() { n.Root().gen++ }

// SetHidden sets the element-hiding flag and invalidates cached tree
// queries. Equal-value writes are no-ops.
func (n *Node) SetHidden(hidden bool) {
	if n.Hidden == hidden {
		return
	}
	n.Hidden = hidden
	n.bumpGen()
}

// AppendChild attaches child as the last child of n, detaching it from any
// previous parent.
func (n *Node) AppendChild(child *Node) {
	if child.Parent != nil {
		child.Parent.RemoveChild(child)
	}
	child.Parent = n
	if n.Children == nil {
		// Most parents hold several children; skip the 1→2→4 growth
		// reallocations the parser would otherwise pay per node.
		n.Children = make([]*Node, 0, 4)
	}
	n.Children = append(n.Children, child)
	n.bumpGen()
}

// InsertBefore inserts child immediately before ref, which must be a child
// of n; a nil ref appends.
func (n *Node) InsertBefore(child, ref *Node) error {
	if ref == nil {
		n.AppendChild(child)
		return nil
	}
	idx := -1
	for i, c := range n.Children {
		if c == ref {
			idx = i
			break
		}
	}
	if idx < 0 {
		return fmt.Errorf("dom: InsertBefore reference is not a child of %s", n.Tag)
	}
	if child.Parent != nil {
		child.Parent.RemoveChild(child)
	}
	child.Parent = n
	n.Children = append(n.Children, nil)
	copy(n.Children[idx+1:], n.Children[idx:])
	n.Children[idx] = child
	n.bumpGen()
	return nil
}

// RemoveChild detaches child from n. Removing a non-child is a no-op.
func (n *Node) RemoveChild(child *Node) {
	for i, c := range n.Children {
		if c == child {
			n.Children = append(n.Children[:i], n.Children[i+1:]...)
			child.Parent = nil
			n.bumpGen()
			return
		}
	}
}

// Clone deep-copies the subtree rooted at n. The clone is detached. Every
// node, attribute map, and child slice is allocated individually; for
// repeated cloning of the same tree, NewTemplate/Instantiate amortizes that
// cost to two slab allocations per clone, and InstantiateInto to none.
func (n *Node) Clone() *Node {
	cp := &Node{Type: n.Type, Tag: n.Tag, Text: n.Text, Hidden: n.Hidden}
	if len(n.attrs) > 0 {
		cp.attrs = append([]attrPair(nil), n.attrs...)
	}
	for _, c := range n.Children {
		cc := c.Clone()
		cc.Parent = cp
		cp.Children = append(cp.Children, cc)
	}
	return cp
}

// Template is a frozen subtree prepared for cheap repeated cloning: the
// survey's browser loads the same page dozens of times (cases × rounds),
// and instantiating a template replaces a full re-parse — or a per-node
// deep Clone — with a copy into two slabs: fresh ones (Instantiate) or,
// allocating nothing, the Slabs of an earlier clone its owner is done with
// (InstantiateInto).
//
// The wrapped tree is owned by the Template and must not be mutated after
// NewTemplate; clones share its attribute storage copy-on-write, so
// Instantiate is safe to call from multiple goroutines concurrently (and
// InstantiateInto, each goroutine with its own Slabs) and mutating one
// clone (structure, Hidden flags, attributes) never leaks into the
// template or any other clone.
type Template struct {
	root  *Node
	nodes int // node count of the subtree
	kids  int // total child-slice length across the subtree
}

// NewTemplate freezes the subtree rooted at n and returns its template.
// The caller must hand over ownership: the tree must not be mutated (or
// handed to anything that mutates it) afterwards.
func NewTemplate(n *Node) *Template {
	t := &Template{root: n}
	n.Walk(func(c *Node) bool {
		// Mark attribute storage shared now, once, so instantiation
		// never writes to template nodes (concurrent clones only read).
		c.sharedAttrs = len(c.attrs) > 0
		t.nodes++
		t.kids += len(c.Children)
		return true
	})
	return t
}

// Root returns the frozen tree for read-only inspection (queries, walks).
func (t *Template) Root() *Node { return t.root }

// NumNodes returns the node count of the frozen subtree.
func (t *Template) NumNodes() int { return t.nodes }

// Instantiate arena-clones the template: all nodes come from one fresh
// []Node slab and all child slices are bump-allocated from one fresh
// []*Node slab, so a clone costs two allocations regardless of page size.
// Attribute maps are shared with the template copy-on-write (SetAttr on a
// clone copies first).
func (t *Template) Instantiate() *Node {
	var s Slabs
	return t.InstantiateInto(&s)
}

// Slabs is the storage of one instantiated tree: its node slab and its
// child-pointer slab. The zero value holds none.
type Slabs struct {
	nodes []Node
	kids  []*Node
}

// InstantiateInto is Instantiate into recycled storage. A slab of s that is
// large enough is overwritten with the new tree, every field of every
// reused node included; a slab that is too small is replaced by a fresh
// one, which s keeps for next time. So a tree built earlier in s ends
// here: its nodes become the new tree's, and whoever still holds one sees
// the new document. Nodes past the new tree's size keep their old
// contents, unreachable from it.
func (t *Template) InstantiateInto(s *Slabs) *Node {
	if t.nodes == 0 {
		return nil
	}
	reuse := len(s.nodes) >= t.nodes
	if !reuse {
		s.nodes = make([]Node, t.nodes)
	}
	if len(s.kids) < t.kids {
		s.kids = make([]*Node, t.kids)
	}
	slab, kidSlab := s.nodes, s.kids
	nodeIdx, kidIdx := 0, 0
	var build func(src, parent *Node) *Node
	build = func(src, parent *Node) *Node {
		cp := &slab[nodeIdx]
		nodeIdx++
		if reuse {
			// A fresh slab is zero, so below only the fields the source
			// sets are written; a recycled node is zeroed first.
			*cp = Node{}
		}
		cp.Type = src.Type
		cp.Tag = src.Tag
		cp.Text = src.Text
		cp.Hidden = src.Hidden
		cp.Parent = parent
		if len(src.attrs) > 0 {
			cp.attrs = src.attrs
			cp.sharedAttrs = true
		}
		if len(src.Children) > 0 {
			cp.Children = kidSlab[kidIdx : kidIdx : kidIdx+len(src.Children)]
			kidIdx += len(src.Children)
			for _, c := range src.Children {
				cp.Children = append(cp.Children, build(c, cp))
			}
		}
		return cp
	}
	return build(t.root, nil)
}

// Walk visits the subtree rooted at n in document (pre-)order. Returning
// false from fn stops the walk.
func (n *Node) Walk(fn func(*Node) bool) bool {
	if !fn(n) {
		return false
	}
	for _, c := range n.Children {
		if !c.Walk(fn) {
			return false
		}
	}
	return true
}

// TextContent concatenates all descendant text.
func (n *Node) TextContent() string {
	var b strings.Builder
	n.Walk(func(c *Node) bool {
		if c.Type == TextNode {
			b.WriteString(c.Text)
		}
		return true
	})
	return b.String()
}

// Visible reports whether the element and all its ancestors are unhidden.
func (n *Node) Visible() bool {
	for c := n; c != nil; c = c.Parent {
		if c.Hidden {
			return false
		}
	}
	return true
}

// Path returns the element's tag path from the root, e.g.
// "html/body/div/a", used for diagnostics.
func (n *Node) Path() string {
	var parts []string
	for c := n; c != nil && c.Type == ElementNode; c = c.Parent {
		parts = append(parts, c.Tag)
	}
	for i, j := 0, len(parts)-1; i < j; i, j = i+1, j-1 {
		parts[i], parts[j] = parts[j], parts[i]
	}
	return strings.Join(parts, "/")
}

// --- selector support (subset: tag, #id, .class, and compounds) ---

// Selector is a parsed simple selector.
type Selector struct {
	Tag     string
	ID      string
	Classes []string
}

// ParseSelector parses a simple selector of the form
// "tag#id.class1.class2" where every component is optional.
func ParseSelector(s string) (Selector, error) {
	var sel Selector
	s = strings.TrimSpace(s)
	if s == "" {
		return sel, fmt.Errorf("dom: empty selector")
	}
	cur := &sel.Tag
	var buf strings.Builder
	flush := func() {
		switch cur {
		case &sel.Tag:
			sel.Tag = strings.ToLower(buf.String())
		case &sel.ID:
			sel.ID = buf.String()
		default:
			if buf.Len() > 0 {
				sel.Classes = append(sel.Classes, buf.String())
			}
		}
		buf.Reset()
	}
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '#':
			flush()
			cur = &sel.ID
		case '.':
			flush()
			cur = nil // subsequent runs are class names
		case ' ', '\t', '>', '[':
			return sel, fmt.Errorf("dom: unsupported selector syntax %q", s)
		default:
			buf.WriteByte(s[i])
		}
	}
	flush()
	return sel, nil
}

// Matches reports whether the element satisfies the selector.
func (sel Selector) Matches(n *Node) bool {
	if n.Type != ElementNode {
		return false
	}
	if sel.Tag != "" && sel.Tag != "*" && n.Tag != sel.Tag {
		return false
	}
	if sel.ID != "" && n.ID() != sel.ID {
		return false
	}
	for _, c := range sel.Classes {
		if !n.HasClass(c) {
			return false
		}
	}
	return true
}

// QuerySelector returns the first descendant element matching the selector
// string, or nil.
func (n *Node) QuerySelector(s string) *Node {
	sel, err := ParseSelector(s)
	if err != nil {
		return nil
	}
	var found *Node
	n.Walk(func(c *Node) bool {
		if c != n && sel.Matches(c) {
			found = c
			return false
		}
		return true
	})
	return found
}

// QuerySelectorAll returns all descendant elements matching the selector
// string, in document order.
func (n *Node) QuerySelectorAll(s string) []*Node {
	sel, err := ParseSelector(s)
	if err != nil {
		return nil
	}
	return n.MatchAll(sel, nil)
}

// MatchAll appends all descendant elements matching the compiled selector
// to dst, in document order, and returns it. Callers that query the same
// selector repeatedly (blocker hide rules, event dispatch) parse once and
// reuse both the selector and the destination slice.
func (n *Node) MatchAll(sel Selector, dst []*Node) []*Node {
	n.Walk(func(c *Node) bool {
		if c != n && sel.Matches(c) {
			dst = append(dst, c)
		}
		return true
	})
	return dst
}

// GetElementByID returns the first element with the given id, or nil.
func (n *Node) GetElementByID(id string) *Node {
	var found *Node
	n.Walk(func(c *Node) bool {
		if c.Type == ElementNode && c.ID() == id {
			found = c
			return false
		}
		return true
	})
	return found
}

// ElementsByTag returns all descendant elements with the tag, in document
// order.
func (n *Node) ElementsByTag(tag string) []*Node {
	tag = strings.ToLower(tag)
	var out []*Node
	n.Walk(func(c *Node) bool {
		if c.Type == ElementNode && c.Tag == tag {
			out = append(out, c)
		}
		return true
	})
	return out
}

// --- document-level conveniences used by the browser and crawler ---

// interactiveTags are the element kinds the monkey-testing horde interacts
// with.
var interactiveTags = map[string]bool{
	"a": true, "button": true, "input": true, "textarea": true,
	"select": true, "iframe": true,
}

// Interactive returns the visible interactive elements of the subtree in
// document order: links, buttons, form fields, iframes, and any element
// carrying a data-action attribute.
func (n *Node) Interactive() []*Node { return n.AppendInteractive(nil) }

// AppendInteractive appends the visible interactive elements to dst and
// returns it; callers enumerating repeatedly (the monkey-testing horde)
// pass a recycled slice. See Gen for cheap change detection.
func (n *Node) AppendInteractive(dst []*Node) []*Node {
	n.Walk(func(c *Node) bool {
		if c.Type != ElementNode || !c.Visible() {
			return c.Type != ElementNode || !c.Hidden // skip hidden subtrees entirely
		}
		if interactiveTags[c.Tag] {
			dst = append(dst, c)
			return true
		}
		if _, ok := c.Attr("data-action"); ok {
			dst = append(dst, c)
		}
		return true
	})
	return dst
}

// Links returns the href values of all visible anchors, deduplicated in
// document order.
func (n *Node) Links() []string {
	seen := map[string]bool{}
	var out []string
	for _, a := range n.ElementsByTag("a") {
		if !a.Visible() {
			continue
		}
		href, ok := a.Attr("href")
		if !ok || href == "" || seen[href] {
			continue
		}
		seen[href] = true
		out = append(out, href)
	}
	return out
}

// ScriptRef is one script reference found in a document.
type ScriptRef struct {
	// Src is the external script URL; empty for inline scripts.
	Src string
	// Inline is the inline script body when Src is empty.
	Inline string
	// Node is the defining element.
	Node *Node
}

// Scripts returns the document's scripts in document order. Scripts execute
// whether or not their element is hidden (hiding is cosmetic), matching
// real element-hiding semantics.
func (n *Node) Scripts() []ScriptRef {
	var out []ScriptRef
	for _, s := range n.ElementsByTag("script") {
		if src, ok := s.Attr("src"); ok && src != "" {
			out = append(out, ScriptRef{Src: src, Node: s})
			continue
		}
		out = append(out, ScriptRef{Inline: s.TextContent(), Node: s})
	}
	return out
}

// Head returns the document's head element, or nil.
func (n *Node) Head() *Node {
	heads := n.ElementsByTag("head")
	if len(heads) == 0 {
		return nil
	}
	return heads[0]
}

// Body returns the document's body element, or nil.
func (n *Node) Body() *Node {
	bodies := n.ElementsByTag("body")
	if len(bodies) == 0 {
		return nil
	}
	return bodies[0]
}

// CountElements returns the number of element nodes in the subtree.
func (n *Node) CountElements() int {
	count := 0
	n.Walk(func(c *Node) bool {
		if c.Type == ElementNode {
			count++
		}
		return true
	})
	return count
}

// String renders a compact description for diagnostics.
func (n *Node) String() string {
	switch n.Type {
	case DocumentNode:
		return "#document"
	case TextNode:
		t := n.Text
		if len(t) > 20 {
			t = t[:20] + "..."
		}
		return fmt.Sprintf("#text(%q)", t)
	case CommentNode:
		return "#comment"
	default:
		var b strings.Builder
		b.WriteString("<" + n.Tag)
		names := n.AttrNames()
		sort.Strings(names)
		for _, a := range names {
			fmt.Fprintf(&b, " %s=%q", a, n.AttrOr(a, ""))
		}
		b.WriteString(">")
		return b.String()
	}
}
