package html

import (
	"fmt"
	"strings"

	"repro/internal/dom"
)

// voidElements never have closing tags.
var voidElements = map[string]bool{
	"area": true, "base": true, "br": true, "col": true, "embed": true,
	"hr": true, "img": true, "input": true, "link": true, "meta": true,
	"param": true, "source": true, "track": true, "wbr": true,
}

// rawTextElements swallow their content verbatim until the matching close
// tag.
var rawTextElements = map[string]bool{"script": true, "style": true}

// ParseError reports a malformed document.
type ParseError struct {
	Offset int
	Msg    string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("html: parse error at offset %d: %s", e.Offset, e.Msg)
}

// Parse parses an HTML document into a dom tree rooted at a DocumentNode.
// The parser is forgiving in the ways real HTML parsers are: unknown close
// tags are dropped, unclosed elements are closed implicitly at EOF, and
// text outside html/body is kept in place.
func Parse(src string) (*dom.Node, error) {
	p := &parser{src: src}
	doc := p.arena.NewDocument()
	p.stack = []*dom.Node{doc}
	for p.pos < len(p.src) {
		if err := p.step(); err != nil {
			return nil, err
		}
	}
	return doc, nil
}

type parser struct {
	src   string
	pos   int
	stack []*dom.Node

	// arena batches this document's node allocations; the parser is the
	// only writer and dies with the parse, so lifetimes match exactly.
	arena dom.Arena
}

func (p *parser) top() *dom.Node { return p.stack[len(p.stack)-1] }

func (p *parser) errorf(format string, args ...any) error {
	return &ParseError{Offset: p.pos, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) step() error {
	if p.src[p.pos] != '<' {
		return p.parseText()
	}
	switch {
	case strings.HasPrefix(p.src[p.pos:], "<!--"):
		return p.parseComment()
	case strings.HasPrefix(p.src[p.pos:], "<!"):
		return p.parseDoctype()
	case strings.HasPrefix(p.src[p.pos:], "</"):
		return p.parseCloseTag()
	default:
		return p.parseOpenTag()
	}
}

func (p *parser) parseText() error {
	start := p.pos
	for p.pos < len(p.src) && p.src[p.pos] != '<' {
		p.pos++
	}
	text := Unescape(p.src[start:p.pos])
	if strings.TrimSpace(text) != "" {
		p.top().AppendChild(p.arena.NewText(text))
	}
	return nil
}

func (p *parser) parseComment() error {
	end := strings.Index(p.src[p.pos+4:], "-->")
	if end < 0 {
		return p.errorf("unterminated comment")
	}
	p.top().AppendChild(p.arena.NewComment(p.src[p.pos+4 : p.pos+4+end]))
	p.pos += 4 + end + 3
	return nil
}

func (p *parser) parseDoctype() error {
	end := strings.IndexByte(p.src[p.pos:], '>')
	if end < 0 {
		return p.errorf("unterminated doctype")
	}
	p.pos += end + 1
	return nil
}

func (p *parser) parseCloseTag() error {
	end := strings.IndexByte(p.src[p.pos:], '>')
	if end < 0 {
		return p.errorf("unterminated close tag")
	}
	name := strings.ToLower(strings.TrimSpace(p.src[p.pos+2 : p.pos+end]))
	p.pos += end + 1
	// Pop to the matching open element; ignore stray close tags.
	for i := len(p.stack) - 1; i >= 1; i-- {
		if p.stack[i].Tag == name {
			p.stack = p.stack[:i]
			return nil
		}
	}
	return nil
}

func (p *parser) parseOpenTag() error {
	start := p.pos
	p.pos++ // '<'
	nameStart := p.pos
	for p.pos < len(p.src) && isTagNameChar(p.src[p.pos]) {
		p.pos++
	}
	name := strings.ToLower(p.src[nameStart:p.pos])
	if name == "" {
		// A bare '<' in text; treat literally.
		p.top().AppendChild(p.arena.NewText("<"))
		p.pos = start + 1
		return nil
	}
	el := p.arena.NewElement(name)

	// Attributes.
	for {
		p.skipSpace()
		if p.pos >= len(p.src) {
			return p.errorf("unterminated tag <%s>", name)
		}
		if p.src[p.pos] == '>' {
			p.pos++
			break
		}
		if strings.HasPrefix(p.src[p.pos:], "/>") {
			p.pos += 2
			p.top().AppendChild(el)
			return nil
		}
		attrStart := p.pos
		for p.pos < len(p.src) && isAttrNameChar(p.src[p.pos]) {
			p.pos++
		}
		attrName := p.src[attrStart:p.pos]
		if attrName == "" {
			return p.errorf("malformed attribute in <%s>", name)
		}
		p.skipSpace()
		if p.pos < len(p.src) && p.src[p.pos] == '=' {
			p.pos++
			p.skipSpace()
			val, err := p.parseAttrValue(name)
			if err != nil {
				return err
			}
			el.SetAttr(attrName, val)
		} else {
			el.SetAttr(attrName, "") // boolean attribute
		}
	}

	p.top().AppendChild(el)
	if voidElements[name] {
		return nil
	}
	if rawTextElements[name] {
		end := rawTextEnd(p.src[p.pos:], name)
		if end < 0 {
			return p.errorf("unterminated <%s> element", name)
		}
		raw := p.src[p.pos : p.pos+end]
		if raw != "" {
			el.AppendChild(p.arena.NewText(raw))
		}
		p.pos += end
		return p.parseCloseTag()
	}
	p.stack = append(p.stack, el)
	return nil
}

// rawTextEnd returns the offset in s of the first "</" followed by name,
// which is lower-case, comparing letters ASCII-case-insensitively; -1 if
// there is none.
func rawTextEnd(s, name string) int {
	for i := 0; ; i += 2 {
		j := strings.Index(s[i:], "</")
		if j < 0 {
			return -1
		}
		i += j
		if rest := s[i+2:]; len(rest) >= len(name) && asciiLowerEqual(rest[:len(name)], name) {
			return i
		}
	}
}

// asciiLowerEqual reports whether s, with ASCII letters lower-cased, equals
// lower.
func asciiLowerEqual(s, lower string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != lower[i] {
			return false
		}
	}
	return true
}

func (p *parser) parseAttrValue(tag string) (string, error) {
	if p.pos >= len(p.src) {
		return "", p.errorf("unterminated attribute in <%s>", tag)
	}
	q := p.src[p.pos]
	if q == '"' || q == '\'' {
		p.pos++
		end := strings.IndexByte(p.src[p.pos:], q)
		if end < 0 {
			return "", p.errorf("unterminated attribute value in <%s>", tag)
		}
		val := Unescape(p.src[p.pos : p.pos+end])
		p.pos += end + 1
		return val, nil
	}
	start := p.pos
	for p.pos < len(p.src) && !isSpace(p.src[p.pos]) && p.src[p.pos] != '>' {
		p.pos++
	}
	return Unescape(p.src[start:p.pos]), nil
}

func (p *parser) skipSpace() {
	for p.pos < len(p.src) && isSpace(p.src[p.pos]) {
		p.pos++
	}
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

func isTagNameChar(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
}

func isAttrNameChar(c byte) bool {
	return isTagNameChar(c) || c == '-' || c == '_' || c == ':'
}

// escaper handles the character references the synthetic web uses.
var escaper = strings.NewReplacer(
	"&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;", "'", "&#39;",
)

var unescaper = strings.NewReplacer(
	"&amp;", "&", "&lt;", "<", "&gt;", ">", "&quot;", `"`, "&#39;", "'",
)

// Escape escapes text for safe embedding in HTML content or attributes.
func Escape(s string) string {
	if !strings.ContainsAny(s, `&<>"'`) {
		return s // nothing to escape; skip the replacer's output buffer
	}
	return escaper.Replace(s)
}

// Unescape resolves the supported character references.
func Unescape(s string) string {
	if strings.IndexByte(s, '&') < 0 {
		return s // no references; skip the replacer's output buffer
	}
	return unescaper.Replace(s)
}

// Render serializes a dom tree back to HTML. Raw-text element content is
// emitted verbatim; other text is escaped.
func Render(n *dom.Node) string {
	var b strings.Builder
	render(&b, n, false)
	return b.String()
}

func render(b *strings.Builder, n *dom.Node, raw bool) {
	switch n.Type {
	case dom.DocumentNode:
		b.WriteString("<!DOCTYPE html>\n")
		for _, c := range n.Children {
			render(b, c, false)
		}
	case dom.TextNode:
		if raw {
			b.WriteString(n.Text)
		} else {
			b.WriteString(Escape(n.Text))
		}
	case dom.CommentNode:
		b.WriteString("<!--" + n.Text + "-->")
	case dom.ElementNode:
		b.WriteString("<" + n.Tag)
		for _, name := range n.AttrNames() {
			v, _ := n.Attr(name)
			if v == "" {
				b.WriteString(" " + name)
				continue
			}
			fmt.Fprintf(b, ` %s="%s"`, name, Escape(v))
		}
		b.WriteString(">")
		if voidElements[n.Tag] {
			return
		}
		childRaw := rawTextElements[n.Tag]
		for _, c := range n.Children {
			render(b, c, childRaw)
		}
		b.WriteString("</" + n.Tag + ">")
	}
}
