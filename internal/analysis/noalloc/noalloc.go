// Package noalloc defines an interprocedural analyzer enforcing
// //chime:noalloc annotations: the annotated function and everything
// it transitively calls must be free of allocating constructs.
//
// The simulator's verb path is pinned at zero allocations per op by
// TestVerbRoundTripZeroAllocs; that test samples one configuration,
// while this analyzer proves the property over every path the type
// system can see. Allocating constructs are the syntactic ones the gc
// compiler cannot generally keep off the heap: make/new/append, slice
// and map composite literals, address-taken composite literals,
// closures capturing enclosing variables, interface boxing (arguments
// and conversions), non-constant string concatenation, string<->[]byte
// conversions, map inserts, `go` statements, and any call into fmt.
//
// Every function's summary is exported as facts — "allocates" (the
// function or a transitive callee contains an allocating construct)
// and "opaque" (the function calls something the analyzer cannot see
// through: a non-allowlisted stdlib function, a function value, or an
// interface method with no known implementation). Both poison
// //chime:noalloc callers, because "cannot verify" must not read as
// "verified".
//
// Escape hatches, both deliberate and auditable:
//
//   - //lint:allow noalloc <reason> on (or directly above) a construct
//     or call excludes it from the summary — for amortised appends
//     into retained capacity and for cold branches like trace
//     sampling, whose zero-steady-state cost the alloc tests pin
//     dynamically.
//   - //chime:coldalloc <reason> on a function declaration exempts the
//     whole body (constructors, error paths, warm-up): callers treat
//     it as allocation-free, and the reason is mandatory.
package noalloc

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"chime/internal/analysis"
)

// Analyzer enforces //chime:noalloc functions (transitively)
// allocation-free.
var Analyzer = &analysis.Analyzer{
	Name: "noalloc",
	Doc: "functions annotated //chime:noalloc and their transitive callees must not " +
		"contain allocating constructs",
	Run: run,
}

const (
	factAllocates = "allocates"
	factOpaque    = "opaque"
)

// allowedStdlib lists the stdlib functions and methods the verb path
// may call: keyed by package path then name ("*" = whole package).
// Everything stdlib outside this list makes the caller opaque.
var allowedStdlib = map[string]map[string]bool{
	"sync":            {"Lock": true, "Unlock": true, "RLock": true, "RUnlock": true, "TryLock": true, "TryRLock": true, "Wait": true, "Signal": true, "Broadcast": true},
	"sync/atomic":     {"*": true},
	"math":            {"*": true},
	"math/bits":       {"*": true},
	"errors":          {"Is": true},
	"runtime":         {"Gosched": true},
	"encoding/binary": {"Uint16": true, "Uint32": true, "Uint64": true, "PutUint16": true, "PutUint32": true, "PutUint64": true},
	"slices":          {"Sort": true, "Contains": true, "Index": true, "BinarySearch": true},
}

// construct is one allocating construct found directly in a body.
type construct struct {
	pos  token.Pos
	desc string
}

// status is one function's summary during the in-package fixpoint.
type status struct {
	alloc  string // "" = does not allocate; else first cause
	opaque string // "" = fully visible; else first cause
	cold   bool   // //chime:coldalloc — exempt body
}

func run(pass *analysis.Pass) (any, error) {
	g := pass.Graph()

	constructs := make(map[string][]construct) // key -> direct constructs
	stat := make(map[string]*status)
	annotated := make(map[string]bool)

	for _, fi := range g.Funcs {
		st := &status{}
		stat[fi.Key] = st
		noalloc, cold, coldReason := directives(fi.Decl)
		annotated[fi.Key] = noalloc
		if cold {
			if noalloc {
				pass.Reportf(fi.Decl.Pos(), "function %s is annotated both //chime:noalloc and //chime:coldalloc", fi.Fn.Name())
			}
			if coldReason == "" {
				pass.Reportf(fi.Decl.Pos(), "//chime:coldalloc on %s requires a reason", fi.Fn.Name())
			}
			st.cold = true
			continue
		}
		cs := collect(pass, fi.Decl)
		constructs[fi.Key] = cs
		if len(cs) > 0 {
			st.alloc = cs[0].desc
		}
	}

	// resolve classifies one call against builtins/conversions, the
	// stdlib allowlist, same-package statuses, and imported facts.
	resolve := func(cs analysis.CallSite) (alloc, opaque string) {
		if cs.Callee == nil {
			if kindOfOpaqueCall(pass.TypesInfo, cs.Call) {
				return "", "call through function value"
			}
			return "", "" // builtin or conversion: handled as constructs
		}
		name := calleeName(cs.Callee)
		if cs.Iface {
			if len(cs.Impls) == 0 {
				return "", "interface call " + name + " with no known implementation"
			}
			for _, impl := range cs.Impls {
				ikey := analysis.KeyOf(impl)
				if st, ok := stat[ikey]; ok {
					if st.alloc != "" && alloc == "" {
						alloc = ikey + ": " + st.alloc
					}
					if st.opaque != "" && opaque == "" {
						opaque = ikey + ": " + st.opaque
					}
					continue
				}
				if why, ok := pass.Facts.Detail(pass.Analyzer.Name, ikey, factAllocates); ok && alloc == "" {
					alloc = ikey + ": " + why
				}
				if why, ok := pass.Facts.Detail(pass.Analyzer.Name, ikey, factOpaque); ok && opaque == "" {
					opaque = ikey + ": " + why
				}
				if !isModuleFunc(impl) && !stdlibAllowed(impl) && opaque == "" {
					opaque = ikey + " not allocation-free-listed"
				}
			}
			return alloc, opaque
		}
		key := analysis.KeyOf(cs.Callee)
		if st, ok := stat[key]; ok { // same package
			if st.alloc != "" {
				return cs.Callee.Name() + ": " + st.alloc, ""
			}
			if st.opaque != "" {
				return "", cs.Callee.Name() + ": " + st.opaque
			}
			return "", ""
		}
		if isModuleFunc(cs.Callee) {
			// Another module package: trust its facts; absence of
			// facts means it was analyzed clean (the drivers run
			// dependencies first) or was never analyzed, in which
			// case the whole-module runs in CI still see it.
			if why, ok := pass.Facts.Detail(pass.Analyzer.Name, key, factAllocates); ok {
				return name + ": " + why, ""
			}
			if why, ok := pass.Facts.Detail(pass.Analyzer.Name, key, factOpaque); ok {
				return "", name + ": " + why
			}
			return "", ""
		}
		if cs.Callee.Pkg() != nil && cs.Callee.Pkg().Path() == "fmt" {
			return "call to fmt." + cs.Callee.Name(), ""
		}
		if stdlibAllowed(cs.Callee) {
			return "", ""
		}
		return "", "calls " + name + " (not allocation-free-listed)"
	}

	// In-package fixpoint: propagate callee summaries through the
	// call graph in deterministic order until stable.
	for changed := true; changed; {
		changed = false
		for _, fi := range g.Funcs {
			st := stat[fi.Key]
			if st.cold || (st.alloc != "" && st.opaque != "") {
				continue
			}
			for _, cs := range fi.Calls {
				if pass.Allowed(cs.Pos) {
					continue
				}
				alloc, opaque := resolve(cs)
				if alloc != "" && st.alloc == "" {
					st.alloc = truncate(alloc)
					changed = true
				}
				if opaque != "" && st.opaque == "" {
					st.opaque = truncate(opaque)
					changed = true
				}
			}
		}
	}

	for _, fi := range g.Funcs {
		st := stat[fi.Key]
		if st.cold {
			continue
		}
		if st.alloc != "" {
			pass.ExportFact(fi.Fn, factAllocates, st.alloc)
		}
		if st.opaque != "" {
			pass.ExportFact(fi.Fn, factOpaque, st.opaque)
		}
	}

	// Report inside annotated functions: constructs at their own
	// position, transitive causes at the offending call site.
	for _, fi := range g.Funcs {
		if !annotated[fi.Key] {
			continue
		}
		name := fi.Fn.Name()
		for _, c := range constructs[fi.Key] {
			pass.Reportf(c.pos, "%s in //chime:noalloc function %s", c.desc, name)
		}
		for _, cs := range fi.Calls {
			if pass.Allowed(cs.Pos) {
				continue
			}
			alloc, opaque := resolve(cs)
			if alloc != "" {
				pass.Reportf(cs.Pos, "call allocates (%s) in //chime:noalloc function %s", truncate(alloc), name)
			} else if opaque != "" {
				pass.Reportf(cs.Pos, "call cannot be verified allocation-free (%s) in //chime:noalloc function %s", truncate(opaque), name)
			}
		}
	}
	return nil, nil
}

// truncate keeps transitive cause chains readable.
func truncate(s string) string {
	const max = 120
	if len(s) > max {
		return s[:max] + "..."
	}
	return s
}

func calleeName(fn *types.Func) string {
	if fn.Pkg() == nil {
		return fn.Name()
	}
	if recv := analysis.ReceiverNamed(fn); recv != "" {
		return recv + "." + fn.Name()
	}
	return fn.Pkg().Name() + "." + fn.Name()
}

func isModuleFunc(fn *types.Func) bool {
	return fn.Pkg() != nil && (fn.Pkg().Path() == "chime" || strings.HasPrefix(fn.Pkg().Path(), "chime/"))
}

func stdlibAllowed(fn *types.Func) bool {
	if fn.Pkg() == nil {
		// Universe scope: error.Error etc. — no allocation.
		return true
	}
	names := allowedStdlib[fn.Pkg().Path()]
	return names != nil && (names["*"] || names[fn.Name()])
}

// directives parses the function's doc comment for //chime:noalloc
// and //chime:coldalloc.
func directives(decl *ast.FuncDecl) (noalloc, cold bool, coldReason string) {
	if decl.Doc == nil {
		return false, false, ""
	}
	for _, c := range decl.Doc.List {
		switch {
		case c.Text == "//chime:noalloc" || strings.HasPrefix(c.Text, "//chime:noalloc "):
			noalloc = true
		case strings.HasPrefix(c.Text, "//chime:coldalloc"):
			cold = true
			coldReason = strings.TrimSpace(strings.TrimPrefix(c.Text, "//chime:coldalloc"))
		}
	}
	return noalloc, cold, coldReason
}

// kindOfOpaqueCall reports whether a Callee-less call is a genuine
// dynamic call (through a function value) rather than a builtin or a
// type conversion.
func kindOfOpaqueCall(info *types.Info, call *ast.CallExpr) bool {
	fun := ast.Unparen(call.Fun)
	var id *ast.Ident
	switch f := fun.(type) {
	case *ast.Ident:
		id = f
	case *ast.SelectorExpr:
		id = f.Sel
	}
	if id != nil {
		if _, ok := info.Uses[id].(*types.Builtin); ok {
			return false
		}
	}
	if tv, ok := info.Types[fun]; ok && tv.IsType() {
		return false
	}
	return true
}

// collect walks one declaration body and returns its direct
// allocating constructs, skipping any carrying a `//lint:allow
// noalloc <reason>` directive.
func collect(pass *analysis.Pass, decl *ast.FuncDecl) []construct {
	info := pass.TypesInfo
	var out []construct
	add := func(pos token.Pos, desc string) {
		if pass.Allowed(pos) {
			return
		}
		out = append(out, construct{pos: pos, desc: desc})
	}
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			collectCall(info, n, add)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					add(n.Pos(), "heap-escaping composite literal (&T{})")
				}
			}
		case *ast.CompositeLit:
			if tv, ok := info.Types[n]; ok && tv.Type != nil {
				switch tv.Type.Underlying().(type) {
				case *types.Slice:
					add(n.Pos(), "slice literal")
				case *types.Map:
					add(n.Pos(), "map literal")
				}
			}
		case *ast.FuncLit:
			if v := capturedVar(info, n, decl); v != "" {
				add(n.Pos(), "closure capturing "+v)
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isNonConstString(info, n) {
				add(n.Pos(), "string concatenation")
			}
		case *ast.AssignStmt:
			if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 && isStringType(info, n.Lhs[0]) {
				add(n.Pos(), "string concatenation (+=)")
			}
			for _, lhs := range n.Lhs {
				if ix, ok := lhs.(*ast.IndexExpr); ok {
					if tv, ok := info.Types[ix.X]; ok && tv.Type != nil {
						if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
							add(n.Pos(), "map insert (may grow)")
						}
					}
				}
			}
		case *ast.GoStmt:
			add(n.Pos(), "go statement")
		}
		return true
	})
	return out
}

// collectCall handles the call-shaped constructs: allocating builtins,
// allocating conversions, and interface boxing of arguments.
func collectCall(info *types.Info, call *ast.CallExpr, add func(token.Pos, string)) {
	fun := ast.Unparen(call.Fun)

	// Allocating builtins.
	if id, ok := fun.(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				add(call.Pos(), "make")
			case "new":
				add(call.Pos(), "new")
			case "append":
				add(call.Pos(), "append (may grow)")
			}
			return
		}
	}

	// Conversions.
	if tv, ok := info.Types[fun]; ok && tv.IsType() {
		if ctv, ok := info.Types[call]; ok && ctv.Value != nil {
			return // constant-folded
		}
		if len(call.Args) != 1 {
			return
		}
		src, ok := info.Types[call.Args[0]]
		if !ok || src.Type == nil {
			return
		}
		dst := tv.Type.Underlying()
		switch dst := dst.(type) {
		case *types.Slice:
			if b, ok := dst.Elem().(*types.Basic); ok && (b.Kind() == types.Byte || b.Kind() == types.Rune) {
				if isString(src.Type) {
					add(call.Pos(), "string to []byte/[]rune conversion")
				}
			}
		case *types.Basic:
			if dst.Info()&types.IsString != 0 {
				if _, ok := src.Type.Underlying().(*types.Slice); ok {
					add(call.Pos(), "[]byte to string conversion")
				}
			}
		case *types.Interface:
			if !types.IsInterface(src.Type) {
				add(call.Pos(), "interface conversion")
			}
		}
		return
	}

	// Interface boxing of arguments.
	sig := signatureOf(info, fun)
	if sig == nil {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // slice passed whole, no per-element boxing
			}
			pt = params.At(params.Len() - 1).Type()
			if s, ok := pt.Underlying().(*types.Slice); ok {
				pt = s.Elem()
			}
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if pt == nil || !types.IsInterface(pt.Underlying()) {
			continue
		}
		at, ok := info.Types[arg]
		if !ok || at.Type == nil || at.IsNil() || types.IsInterface(at.Type) {
			continue
		}
		add(arg.Pos(), "interface boxing (arg to "+pt.String()+" param)")
	}
}

func signatureOf(info *types.Info, fun ast.Expr) *types.Signature {
	tv, ok := info.Types[fun]
	if !ok || tv.Type == nil {
		return nil
	}
	sig, _ := tv.Type.Underlying().(*types.Signature)
	return sig
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isStringType(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	return ok && tv.Type != nil && isString(tv.Type)
}

func isNonConstString(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	return ok && tv.Type != nil && isString(tv.Type) && tv.Value == nil
}

// capturedVar returns the name of a variable the literal captures from
// its enclosing function (forcing a heap-allocated closure), or "".
func capturedVar(info *types.Info, lit *ast.FuncLit, decl *ast.FuncDecl) string {
	captured := ""
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if captured != "" {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		// Captured iff declared inside the enclosing declaration
		// (parameters included) but outside the literal itself.
		if v.Pos() >= decl.Pos() && v.Pos() < lit.Pos() {
			captured = v.Name()
		}
		return true
	})
	return captured
}
