package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HotPathAlloc returns the analyzer guarding PR 1's hot-path contract: the
// code that runs every simulated cycle performs no allocation and no map
// lookup. The per-tick call surface is discovered structurally, per
// package:
//
//   - Cycle() methods — the sim.Tickable / comp.Component tick callbacks;
//   - Next() (T, bool) methods — sim.Source schedule generators;
//   - Consume(T) methods — sim.Sink result consumers;
//   - Lookahead() uint64 and Advance(uint64) methods — the comp.Lookahead
//     fast-forward probes, called once per candidate skip at tick rate;
//   - functions wired into a sim.Kernel literal's Control / Done /
//     Progress / Err / Draining / Lookahead / Advance hooks (method values
//     and closures);
//   - extraRoots, a per-package-path list of "Type.Method" (or plain
//     function) names for hot leaves invoked from another package's tick
//     loop — e.g. mem.GlobalBuffer.Read, which engine controllers call per
//     cycle but which roots nothing structurally in its own package. A
//     name matches the declared receiver only (a method promoted from an
//     embedded type is rooted under that type), and a name that matches
//     no declaration of an analyzed package is itself a finding.
//
// From those roots the analyzer walks the package-local static call graph
// and flags allocating expressions and map indexing in every reachable
// function. Calls that cross a package boundary are not followed (each
// package is analyzed with its own roots); the Deadlock hook is deliberately
// not a root — it renders once, at abort, never per tick.
func HotPathAlloc(extraRoots map[string][]string) *Analyzer {
	a := &Analyzer{
		Name: "hotpathalloc",
		Doc: "per-tick code (Cycle/Next/Consume and sim.Kernel hooks, plus their " +
			"package-local callees) must stay free of allocations and map lookups",
	}
	a.Run = func(pass *Pass) error {
		h := &hotPaths{pass: pass}
		h.collectDecls()
		h.collectRoots(extraRoots[pass.Pkg.Path()])
		h.propagate()
		h.flag()
		return nil
	}
	return a
}

type hotFunc struct {
	decl *ast.FuncDecl
	// root holds the surface name the function was reached from, for the
	// diagnostic ("Cycle", "Next", a Kernel hook, ...). Empty = cold.
	root string
}

type hotPaths struct {
	pass  *Pass
	decls map[*types.Func]*hotFunc
	// rootLits are hot closure bodies (Kernel hook func literals).
	rootLits map[*ast.FuncLit]string
	work     []*types.Func
}

func (h *hotPaths) collectDecls() {
	h.decls = make(map[*types.Func]*hotFunc)
	h.rootLits = make(map[*ast.FuncLit]string)
	for _, f := range h.pass.Files {
		if h.pass.InTestFile(f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := h.pass.Info.Defs[fd.Name].(*types.Func); ok {
				h.decls[fn] = &hotFunc{decl: fd}
			}
		}
	}
}

func (h *hotPaths) markRoot(fn *types.Func, why string) {
	hf, ok := h.decls[fn]
	if !ok || hf.root != "" {
		return
	}
	hf.root = why
	h.work = append(h.work, fn)
}

func (h *hotPaths) collectRoots(extra []string) {
	extraSet := make(map[string]bool, len(extra))
	for _, e := range extra {
		extraSet[e] = true
	}
	matched := make(map[string]bool, len(extra))
	for fn, hf := range h.decls {
		fd := hf.decl
		if name := qualifiedName(fd); extraSet[name] {
			matched[name] = true
			h.markRoot(fn, name+" (configured hot leaf)")
		}
		if fd.Recv == nil {
			continue
		}
		sig, ok := fn.Type().(*types.Signature)
		if !ok {
			continue
		}
		switch fd.Name.Name {
		case "Cycle":
			if sig.Params().Len() == 0 && sig.Results().Len() == 0 {
				h.markRoot(fn, qualifiedName(fd)+" (tick callback)")
			}
		case "Next":
			if sig.Params().Len() == 0 && sig.Results().Len() == 2 && isBool(sig.Results().At(1).Type()) {
				h.markRoot(fn, qualifiedName(fd)+" (sim.Source)")
			}
		case "Consume":
			if sig.Params().Len() == 1 && sig.Results().Len() == 0 {
				h.markRoot(fn, qualifiedName(fd)+" (sim.Sink)")
			}
		case "Lookahead":
			if sig.Params().Len() == 0 && sig.Results().Len() == 1 && isUint64(sig.Results().At(0).Type()) {
				h.markRoot(fn, qualifiedName(fd)+" (fast-forward probe)")
			}
		case "Advance":
			if sig.Params().Len() == 1 && sig.Results().Len() == 0 && isUint64(sig.Params().At(0).Type()) {
				h.markRoot(fn, qualifiedName(fd)+" (fast-forward advance)")
			}
		}
	}
	h.reportStaleRoots(extra, matched)
	// sim.Kernel hook wiring.
	for _, f := range h.pass.Files {
		if h.pass.InTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			lit, ok := n.(*ast.CompositeLit)
			if !ok || !h.isKernelLit(lit) {
				return true
			}
			for _, el := range lit.Elts {
				kv, ok := el.(*ast.KeyValueExpr)
				if !ok {
					continue
				}
				key, ok := kv.Key.(*ast.Ident)
				if !ok {
					continue
				}
				switch key.Name {
				case "Control", "Done", "Progress", "Err", "Draining", "Lookahead", "Advance":
				default:
					continue
				}
				why := "sim.Kernel." + key.Name + " hook"
				switch v := kv.Value.(type) {
				case *ast.FuncLit:
					if h.rootLits[v] == "" {
						h.rootLits[v] = why
					}
				default:
					if fn := h.staticCallee(kv.Value); fn != nil {
						h.markRoot(fn, why)
					}
				}
			}
			return true
		})
	}
}

// reportStaleRoots flags every configured hot leaf that names no
// declaration of the package. Roots match the declared receiver, so a
// method promoted from an embedded type must be configured under the
// embedded type's name; a stale or promoted-name entry would otherwise
// silently leave its code unanalyzed. The finding sits on the package
// clause of the first non-test file.
func (h *hotPaths) reportStaleRoots(extra []string, matched map[string]bool) {
	var clause token.Pos
	for _, f := range h.pass.Files {
		if !h.pass.InTestFile(f.Pos()) {
			clause = f.Name.Pos()
			break
		}
	}
	if !clause.IsValid() {
		return
	}
	for _, name := range extra {
		if !matched[name] {
			h.pass.Reportf(clause, "configured hot leaf %s matches no declaration in %s (roots name the declared receiver)",
				name, h.pass.Pkg.Path())
		}
	}
}

func (h *hotPaths) isKernelLit(lit *ast.CompositeLit) bool {
	tv, ok := h.pass.Info.Types[lit]
	if !ok || tv.Type == nil {
		return false
	}
	named, ok := tv.Type.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Kernel" && obj.Pkg() != nil && obj.Pkg().Path() == simPkgPath
}

// staticCallee resolves an expression to a package-local declared function
// (method value f.ctrlCycle, or plain identifier).
func (h *hotPaths) staticCallee(e ast.Expr) *types.Func {
	var obj types.Object
	switch v := e.(type) {
	case *ast.Ident:
		obj = h.pass.Info.Uses[v]
	case *ast.SelectorExpr:
		obj = h.pass.Info.Uses[v.Sel]
	default:
		return nil
	}
	fn, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	if _, local := h.decls[fn]; !local {
		return nil
	}
	return fn
}

// propagate runs the BFS over package-local static calls.
func (h *hotPaths) propagate() {
	seenLit := make(map[*ast.FuncLit]bool)
	visit := func(body ast.Node, root string) {
		ast.Inspect(body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if fn := h.staticCallee(call.Fun); fn != nil {
				h.markRoot(fn, root)
			}
			return true
		})
	}
	for lit, why := range h.rootLits {
		if !seenLit[lit] {
			seenLit[lit] = true
			visit(lit.Body, why)
		}
	}
	for len(h.work) > 0 {
		fn := h.work[len(h.work)-1]
		h.work = h.work[:len(h.work)-1]
		hf := h.decls[fn]
		visit(hf.decl.Body, hf.root)
	}
}

// flag reports allocating constructs in every hot body.
func (h *hotPaths) flag() {
	for _, hf := range h.decls {
		if hf.root != "" {
			h.flagBody(hf.decl.Body, hf.root)
		}
	}
	for lit, why := range h.rootLits {
		h.flagBody(lit.Body, why)
	}
}

func (h *hotPaths) flagBody(body ast.Node, root string) {
	info := h.pass.Info
	report := func(pos token.Pos, what string) {
		h.pass.Reportf(pos, "%s on the per-tick path (reachable from %s)", what, root)
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.IndexExpr:
			if tv, ok := info.Types[e.X]; ok {
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					report(e.Lbrack, "map index")
				}
			}
		case *ast.FuncLit:
			report(e.Pos(), "closure (captures escape to the heap)")
		case *ast.GoStmt:
			report(e.Pos(), "goroutine launch")
		case *ast.CompositeLit:
			if tv, ok := info.Types[e]; ok {
				switch tv.Type.Underlying().(type) {
				case *types.Slice:
					report(e.Pos(), "slice literal (allocates)")
				case *types.Map:
					report(e.Pos(), "map literal (allocates)")
				}
			}
		case *ast.BinaryExpr:
			if e.Op == token.ADD && isStringExpr(info, e.X) {
				report(e.OpPos, "string concatenation (allocates)")
			}
		case *ast.CallExpr:
			h.flagCall(e, report)
		}
		return true
	})
}

func (h *hotPaths) flagCall(call *ast.CallExpr, report func(token.Pos, string)) {
	info := h.pass.Info
	// Builtins.
	if id, ok := call.Fun.(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "append":
				report(call.Pos(), "append (may grow the backing array)")
			case "make":
				report(call.Pos(), "make (allocates)")
			case "new":
				report(call.Pos(), "new (allocates)")
			}
			return
		}
	}
	// Conversions between string and byte/rune slices.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		to := tv.Type.Underlying()
		from := info.Types[call.Args[0]].Type
		if from != nil {
			if isStringType(to) && isByteOrRuneSlice(from.Underlying()) ||
				isByteOrRuneSlice(to) && isStringType(from.Underlying()) {
				report(call.Pos(), "string/slice conversion (copies and allocates)")
			}
		}
		return
	}
	// fmt.* — formatting always allocates.
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if fn, ok := info.Uses[sel.Sel].(*types.Func); ok {
			if pkg := fn.Pkg(); pkg != nil && pkg.Path() == "fmt" {
				report(call.Pos(), "fmt."+fn.Name()+" (formats and allocates)")
			}
		}
	}
}

func qualifiedName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name + "." + fd.Name.Name
	}
	return fd.Name.Name
}

func isBool(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Kind() == types.Bool
}

func isUint64(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Kind() == types.Uint64
}

func isStringExpr(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	return ok && tv.Type != nil && isStringType(tv.Type.Underlying())
}

func isStringType(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.(*types.Slice)
	if !ok {
		return false
	}
	e, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (e.Kind() == types.Byte || e.Kind() == types.Rune)
}
