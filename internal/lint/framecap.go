package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Framecap guards the decoder-hardening invariant in the wire packages
// (logstore, dist): a length read off the wire must be checked against a
// cap before it sizes an allocation. A varint can claim 2^64 elements in
// two bytes — `make([]byte, n)` on an unchecked claim lets a corrupt spill
// file or a hostile peer allocate unboundedly before the follow-up
// ReadFull ever fails. Both packages already route most lengths through
// capped helpers (binReader.count/str/bitset take an explicit max); this
// analyzer catches the raw path those helpers exist to prevent.
//
// Tainted sources: encoding/binary.ReadUvarint / ReadVarint / Uvarint /
// Varint, local wrappers named readUvarint / readVarint (dist's
// error-annotating wrapper), and functions or methods named rawUvarint
// (logstore's window reader, which decodes varints from its own buffer
// rather than through encoding/binary's readers). A taint is cleared by any
// if-statement between the read and the make whose condition compares the
// tainted variable (n > max, n > uint64(r.Len()), ...).
//
// A length that is genuinely bounded some other way can
// `//lint:allow framecap` with a comment naming the bound.
var Framecap = &Analyzer{
	Name: "framecap",
	Doc:  "flag slice allocations sized by an unchecked wire-read length in logstore/dist",
	Run:  runFramecap,
}

func runFramecap(pass *Pass) error {
	for _, f := range pass.Files {
		for _, fn := range functions(f) {
			checkFramecapFunc(pass, fn)
		}
	}
	return nil
}

// taintedLen is one wire-read length variable.
type taintedLen struct {
	obj types.Object
	pos token.Pos
}

func checkFramecapFunc(pass *Pass, fn funcBody) {
	info := pass.TypesInfo
	var tainted []taintedLen

	taintOf := func(e ast.Expr) *taintedLen {
		obj := identObj(info, unwrap(info, e))
		if obj == nil {
			return nil
		}
		for i := range tainted {
			if tainted[i].obj == obj {
				return &tainted[i]
			}
		}
		return nil
	}

	inspectOwn(fn, func(n ast.Node) {
		switch s := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range s.Rhs {
				if i >= len(s.Lhs) {
					break
				}
				obj := identObj(info, ast.Unparen(s.Lhs[i]))
				if obj == nil {
					continue
				}
				src := unwrap(info, rhs)
				if call, ok := src.(*ast.CallExpr); ok && isWireRead(info, call) {
					tainted = append(tainted, taintedLen{obj: obj, pos: s.Pos()})
					continue
				}
				// Conversion/assignment propagates taint:
				// m := int(n).
				if t := taintOf(rhs); t != nil {
					tainted = append(tainted, taintedLen{obj: obj, pos: s.Pos()})
				}
			}
			// Multi-value form: n, err := readUvarint(...).
			if len(s.Rhs) == 1 && len(s.Lhs) > 1 {
				if call, ok := unwrap(info, s.Rhs[0]).(*ast.CallExpr); ok && isWireRead(info, call) {
					if obj := identObj(info, ast.Unparen(s.Lhs[0])); obj != nil {
						tainted = append(tainted, taintedLen{obj: obj, pos: s.Pos()})
					}
				}
			}
		case *ast.CallExpr:
			id, ok := ast.Unparen(s.Fun).(*ast.Ident)
			if !ok || id.Name != "make" {
				return
			}
			if _, ok := info.Uses[id].(*types.Builtin); !ok {
				return
			}
			if len(s.Args) < 2 {
				return
			}
			if _, ok := info.Types[s.Args[0]].Type.Underlying().(*types.Slice); !ok {
				return
			}
			for _, sizeArg := range s.Args[1:] {
				t := taintOf(sizeArg)
				if t == nil {
					continue
				}
				if guardedBetween(info, fn, t, s.Pos()) {
					continue
				}
				pass.Reportf(s.Pos(),
					"make sized by wire-read length %q with no bound check between the read and the allocation: a corrupt or hostile stream can claim 2^64 elements (compare against a hardening cap first)",
					t.obj.Name())
			}
		}
	})
}

// isWireRead reports whether the call produces an unbounded length from
// the wire.
func isWireRead(info *types.Info, call *ast.CallExpr) bool {
	fnObj := calleeFunc(info, call)
	if fnObj == nil {
		return false
	}
	name := fnObj.Name()
	if fnObj.Pkg() != nil && fnObj.Pkg().Path() == "encoding/binary" {
		switch name {
		case "ReadUvarint", "ReadVarint", "Uvarint", "Varint":
			return true
		}
	}
	switch name {
	case "readUvarint", "readVarint", "rawUvarint":
		return true
	}
	return false
}

// guardedBetween reports whether an if-statement between the taint and
// the allocation compares the tainted variable — the bound check that
// clears the taint.
func guardedBetween(info *types.Info, fn funcBody, t *taintedLen, makePos token.Pos) bool {
	guarded := false
	inspectOwn(fn, func(n ast.Node) {
		if guarded {
			return
		}
		ifs, ok := n.(*ast.IfStmt)
		if !ok || ifs.Pos() < t.pos || ifs.Pos() > makePos {
			return
		}
		if condCompares(info, ifs.Cond, t.obj) {
			guarded = true
		}
	})
	return guarded
}

// condCompares reports whether the condition contains an ordered
// comparison involving obj.
func condCompares(info *types.Info, cond ast.Expr, obj types.Object) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		b, ok := n.(*ast.BinaryExpr)
		if !ok {
			return true
		}
		switch b.Op {
		case token.GTR, token.GEQ, token.LSS, token.LEQ, token.EQL, token.NEQ:
			if containsIdentObj(info, b.X, obj) || containsIdentObj(info, b.Y, obj) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}
