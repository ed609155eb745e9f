package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Interprocedural taint engine for the leaksurface analyzer.
//
// The taint model (documented for users in DESIGN.md):
//
//   - Sources are the types that physically hold class hypervectors or
//     values derived from them at full resolution: hdc.Model and
//     hdc.BinaryModel (class-row storage), the prid facades over them,
//     attack.Reconstructor (holds the model it inverts), and the
//     engine.Served interface (the registry's handle to a model). Every
//     expression of one of these types — and everything data-flows from
//     it — carries the source bit.
//   - Sinks are the places data leaves the process: HTTP response
//     writers, encoding/* marshalling, the binary wire writer, and
//     slog/obs logging.
//   - Kills: classification outputs launder taint. Signed integers,
//     bools, and slices/arrays of them (predicted classes) are never
//     tainted, and neither are error values. Everything else — float
//     slices, packed uint64 rows, serialized []byte, strings, structs —
//     stays tainted.
//   - A sink only fires on structured values. A lone numeric scalar
//     (accuracy, leakage Δ, one cosine score) is an aggregate far below
//     the resolution model inversion needs, and the serving stack logs
//     such aggregates on purpose.
//
// Propagation is summary-based: for every module function we compute
// which parameters (receiver first) flow to which results and which
// parameters reach a sink, bottom-up over call-graph SCCs, so a taint
// entering writeJSON's v parameter is charged to writeJSON's callers.
// Calls out of the module are conservative: every result carries the
// union of every argument (and receiver) mask. Dynamic calls through
// function values likewise union their inputs. Taint through
// package-level variables is not tracked across functions.

// taintMask is a bitset over taint origins: bit 0 is "derived from a
// model source", bit i+1 is "derived from parameter i of the function
// under analysis" (receiver counts as parameter 0). Functions with more
// than 62 parameters lose tracking for the overflow — none exist here.
type taintMask uint64

const maskSource taintMask = 1

const maxTrackedParams = 62

func paramBit(i int) taintMask {
	if i < 0 || i >= maxTrackedParams {
		return 0
	}
	return 1 << (uint(i) + 1)
}

// taintSourceTypes lists the qualified type names whose values are
// leakage sources. Fixture packages import the real prid/internal/hdc,
// so the list needs no test-only entries.
var taintSourceTypes = map[string]bool{
	"prid/internal/hdc.Model":            true,
	"prid/internal/hdc.BinaryModel":      true,
	"prid.Model":                         true,
	"prid.BinaryModel":                   true,
	"prid/internal/attack.Reconstructor": true,
	"prid/internal/serve/engine.Served":  true,
	"prid/internal/serve.Backend":        true,
}

// taintAllowedFuncs are the endpoints whose whole purpose is emitting
// model-derived data: the attacker/audit HTTP endpoints (one set,
// shared by serve and gateway) and the PRIDMDL1/PRIDBIN1 wire savers.
// Findings inside them are dropped and their parameters never count as
// sinks for callers — everything else needs a written //pridlint:allow.
var taintAllowedFuncs = map[string]bool{
	"(*prid/internal/serve.Edge).handleReconstruct":  true,
	"(*prid/internal/serve.Edge).handleAuditLeakage": true,
	"prid/internal/hdc.WriteModel":                   true,
	"prid/internal/hdc.WriteBinaryModel":             true,
	"prid/internal/hdc.WritePackedBasis":             true,
}

// isSourceType reports whether t (through pointers) is one of the
// model-holding source types.
func isSourceType(t types.Type) bool {
	for {
		p, ok := t.(*types.Pointer)
		if !ok {
			break
		}
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	if obj.Pkg() == nil {
		return false
	}
	return taintSourceTypes[obj.Pkg().Path()+"."+obj.Name()]
}

// killedType reports whether values of t can never carry model taint:
// classification outputs (signed ints, bools, and slices/arrays of
// them) and errors. Unsigned integers are deliberately not killed —
// packed class rows are []uint64.
func killedType(t types.Type) bool {
	if t == nil {
		return false
	}
	switch u := t.Underlying().(type) {
	case *types.Basic:
		return killedBasic(u)
	case *types.Slice:
		if b, ok := u.Elem().Underlying().(*types.Basic); ok {
			return killedBasic(b)
		}
	case *types.Array:
		if b, ok := u.Elem().Underlying().(*types.Basic); ok {
			return killedBasic(b)
		}
	case *types.Interface:
		return types.Identical(t, types.Universe.Lookup("error").Type())
	}
	return false
}

func killedBasic(b *types.Basic) bool {
	info := b.Info()
	if info&types.IsBoolean != 0 {
		return true
	}
	return info&types.IsInteger != 0 && info&types.IsUnsigned == 0
}

// sinkValueFires reports whether a tainted value of static type t is
// reportable at a sink. Bare numeric scalars do not fire: a single
// float is an aggregate (Δ, MSE, accuracy), not a reconstructable row.
func sinkValueFires(t types.Type) bool {
	if t == nil {
		return true
	}
	b, ok := t.Underlying().(*types.Basic)
	if !ok {
		return true
	}
	return b.Info()&types.IsNumeric == 0
}

// sinkHit describes one way data reaches the outside world: the sink
// category, the terminal call, and the module-local call chain that
// leads there (outermost callee first, capped for readability).
type sinkHit struct {
	cat  string // "http-response", "marshal", "wire", "log"
	sink string // terminal callee, e.g. "(*encoding/json.Encoder).Encode"
	via  []string
}

// leakFinding is one source→sink flow detected in a function.
type leakFinding struct {
	pos token.Pos
	hit sinkHit
}

// summary is the interprocedural contract of one module function:
// which parameters flow to which results, which parameters reach
// sinks, and the source→sink findings detected inside it.
type summary struct {
	fd        *funcDecl
	params    []*types.Var // receiver first
	retMask   []taintMask  // per result: which origins flow there
	paramSink []*sinkHit   // per param: how it reaches a sink, or nil
	findings  []leakFinding
	seen      map[token.Pos]bool
	allowed   bool
}

func newSummary(fd *funcDecl) *summary {
	sig := fd.obj.Type().(*types.Signature)
	var params []*types.Var
	if recv := sig.Recv(); recv != nil {
		params = append(params, recv)
	}
	for i := 0; i < sig.Params().Len(); i++ {
		params = append(params, sig.Params().At(i))
	}
	return &summary{
		fd:        fd,
		params:    params,
		retMask:   make([]taintMask, sig.Results().Len()),
		paramSink: make([]*sinkHit, len(params)),
		seen:      map[token.Pos]bool{},
		allowed:   taintAllowedFuncs[fd.obj.FullName()],
	}
}

// computeSummaries runs the bottom-up summary computation: SCCs in
// reverse topological order, iterating recursive components to a fixed
// point.
func (ix *ModuleIndex) computeSummaries() {
	for obj, fd := range ix.funcs {
		ix.summaries[obj] = newSummary(fd)
	}
	for _, scc := range ix.sccOrder() {
		recursive := len(scc) > 1
		if !recursive {
			for _, c := range ix.callees(scc[0]) {
				if c == scc[0] {
					recursive = true
				}
			}
		}
		for pass := 0; pass < 16; pass++ {
			changed := false
			for _, fd := range scc {
				if ix.analyzeFunc(fd) {
					changed = true
				}
			}
			if !changed || !recursive {
				break
			}
		}
	}
}

// analyzeFunc runs the intra-function taint fixpoint for fd, merging
// into its summary. It reports whether the exported summary changed —
// the SCC driver's convergence signal.
func (ix *ModuleIndex) analyzeFunc(fd *funcDecl) bool {
	sum := ix.summaries[fd.obj]
	ev := &evaluator{ix: ix, fd: fd, sum: sum, obj: map[types.Object]taintMask{}}
	for i, p := range sum.params {
		ev.obj[p] = paramBit(i)
	}
	lits := funcLitRanges(fd.decl.Body)
	for iter := 0; iter < 32; iter++ {
		ev.changed = false
		ev.walkBody(fd.decl.Body, lits)
		if !ev.changed {
			break
		}
	}
	return ev.sumChanged
}

// posRange is a half-open position interval.
type posRange struct{ lo, hi token.Pos }

// funcLitRanges collects the source ranges of every function literal in
// body, so return statements inside closures are not attributed to the
// enclosing function's results.
func funcLitRanges(body *ast.BlockStmt) []posRange {
	var out []posRange
	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			out = append(out, posRange{lit.Pos(), lit.End()})
		}
		return true
	})
	return out
}

func insideLit(pos token.Pos, lits []posRange) bool {
	for _, r := range lits {
		if pos >= r.lo && pos < r.hi {
			return true
		}
	}
	return false
}

// evaluator runs the may-taint dataflow over one function body.
// Assignments only ever add taint (monotone), so iterating the
// syntactic walk to a fixed point handles loops and use-before-def.
type evaluator struct {
	ix  *ModuleIndex
	fd  *funcDecl
	sum *summary
	obj map[types.Object]taintMask

	changed    bool // objMask grew this iteration
	sumChanged bool // exported summary grew this analysis
}

func (ev *evaluator) info() *types.Info { return ev.fd.pkg.Info }

func (ev *evaluator) walkBody(body *ast.BlockStmt, lits []posRange) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			ev.assignStmt(s)
		case *ast.GenDecl:
			ev.genDecl(s)
		case *ast.RangeStmt:
			m := ev.mask(s.X)
			if s.Key != nil {
				ev.assignTo(s.Key, m)
			}
			if s.Value != nil {
				ev.assignTo(s.Value, m)
			}
		case *ast.SendStmt:
			ev.assignTo(s.Chan, ev.mask(s.Value))
		case *ast.ReturnStmt:
			if !insideLit(s.Pos(), lits) {
				ev.returnStmt(s)
			}
		case *ast.CallExpr:
			ev.callMasks(s) // every call is evaluated for sink effects
		}
		return true
	})
}

func (ev *evaluator) merge(obj types.Object, m taintMask) {
	if m == 0 || obj == nil {
		return
	}
	old := ev.obj[obj]
	if old|m != old {
		ev.obj[obj] = old | m
		ev.changed = true
	}
}

func (ev *evaluator) lookupObj(id *ast.Ident) types.Object {
	if obj := ev.info().Uses[id]; obj != nil {
		return obj
	}
	return ev.info().Defs[id]
}

// mask evaluates the taint of an expression, applying the type-based
// kill (classification outputs, errors) and the type-based source rule
// at every level.
func (ev *evaluator) mask(e ast.Expr) taintMask {
	if e == nil {
		return 0
	}
	m := ev.raw(e)
	if t := ev.info().TypeOf(e); t != nil {
		if killedType(t) {
			m = 0
		}
		if isSourceType(t) {
			m |= maskSource
		}
	}
	return m
}

func (ev *evaluator) raw(e ast.Expr) taintMask {
	switch x := e.(type) {
	case *ast.Ident:
		return ev.obj[ev.lookupObj(x)]
	case *ast.ParenExpr:
		return ev.mask(x.X)
	case *ast.SelectorExpr:
		if id, ok := x.X.(*ast.Ident); ok {
			if _, isPkg := ev.info().Uses[id].(*types.PkgName); isPkg {
				return 0 // qualified reference, not a data flow
			}
		}
		return ev.mask(x.X)
	case *ast.IndexExpr:
		return ev.mask(x.X)
	case *ast.IndexListExpr:
		return ev.mask(x.X)
	case *ast.SliceExpr:
		return ev.mask(x.X)
	case *ast.StarExpr:
		return ev.mask(x.X)
	case *ast.UnaryExpr:
		return ev.mask(x.X) // includes &v and <-ch
	case *ast.BinaryExpr:
		return ev.mask(x.X) | ev.mask(x.Y)
	case *ast.TypeAssertExpr:
		return ev.mask(x.X)
	case *ast.CompositeLit:
		var m taintMask
		for _, el := range x.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				m |= ev.mask(kv.Value)
			} else {
				m |= ev.mask(el)
			}
		}
		return m
	case *ast.CallExpr:
		var m taintMask
		for _, r := range ev.callMasks(x) {
			m |= r
		}
		return m
	case *ast.FuncLit:
		return ev.freeVarMask(x)
	}
	return 0
}

// freeVarMask is the taint a closure value carries: the union over
// every tainted object its body references.
func (ev *evaluator) freeVarMask(lit *ast.FuncLit) taintMask {
	var m taintMask
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := ev.info().Uses[id]
		if obj == nil {
			return true
		}
		m |= ev.obj[obj]
		if v, ok := obj.(*types.Var); ok && isSourceType(v.Type()) {
			m |= maskSource
		}
		return true
	})
	return m
}

func (ev *evaluator) assignStmt(s *ast.AssignStmt) {
	if len(s.Rhs) == 1 && len(s.Lhs) > 1 {
		var ms []taintMask
		switch r := ast.Unparen(s.Rhs[0]).(type) {
		case *ast.CallExpr:
			ms = ev.callMasks(r)
		case *ast.TypeAssertExpr: // v, ok := x.(T)
			ms = []taintMask{ev.mask(r.X), 0}
		case *ast.IndexExpr: // v, ok := m[k]
			ms = []taintMask{ev.mask(r.X), 0}
		case *ast.UnaryExpr: // v, ok := <-ch
			ms = []taintMask{ev.mask(r.X), 0}
		}
		for i, l := range s.Lhs {
			var m taintMask
			if i < len(ms) {
				m = ms[i]
			}
			ev.assignTo(l, m)
		}
		return
	}
	for i, l := range s.Lhs {
		if i < len(s.Rhs) {
			ev.assignTo(l, ev.mask(s.Rhs[i]))
		}
	}
}

func (ev *evaluator) genDecl(d *ast.GenDecl) {
	if d.Tok != token.VAR {
		return
	}
	for _, spec := range d.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			continue
		}
		if len(vs.Values) == 1 && len(vs.Names) > 1 {
			if call, ok := ast.Unparen(vs.Values[0]).(*ast.CallExpr); ok {
				ms := ev.callMasks(call)
				for i, name := range vs.Names {
					if i < len(ms) {
						ev.assignTo(name, ms[i])
					}
				}
				continue
			}
		}
		for i, name := range vs.Names {
			if i < len(vs.Values) {
				ev.assignTo(name, ev.mask(vs.Values[i]))
			}
		}
	}
}

// assignTo merges mask m into the object behind an lvalue. Writing
// through a selector, index, or dereference taints the container's
// root: storing a class row into out[i] makes out tainted.
func (ev *evaluator) assignTo(lhs ast.Expr, m taintMask) {
	if m == 0 {
		return
	}
	switch l := lhs.(type) {
	case *ast.Ident:
		if l.Name == "_" {
			return
		}
		ev.merge(ev.lookupObj(l), m)
	case *ast.ParenExpr:
		ev.assignTo(l.X, m)
	default:
		ev.merge(lvalueRootObj(ev.info(), lhs), m)
	}
}

// lvalueRootObj resolves the base object of a selector/index/deref
// chain ("s.buf[i]" → s), or nil when the base is not a simple object.
func lvalueRootObj(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.Ident:
			if obj := info.Uses[x]; obj != nil {
				return obj
			}
			return info.Defs[x]
		default:
			return nil
		}
	}
}

func (ev *evaluator) returnStmt(s *ast.ReturnStmt) {
	sig := ev.fd.obj.Type().(*types.Signature)
	nres := sig.Results().Len()
	if len(s.Results) == 0 {
		for i := 0; i < nres; i++ {
			if v := sig.Results().At(i); v.Name() != "" {
				ev.mergeRet(i, ev.obj[v], v.Type())
			}
		}
		return
	}
	if len(s.Results) == 1 && nres > 1 {
		if call, ok := ast.Unparen(s.Results[0]).(*ast.CallExpr); ok {
			ms := ev.callMasks(call)
			for i := 0; i < nres && i < len(ms); i++ {
				ev.mergeRet(i, ms[i], sig.Results().At(i).Type())
			}
			return
		}
	}
	for i, r := range s.Results {
		if i < nres {
			ev.mergeRet(i, ev.mask(r), sig.Results().At(i).Type())
		}
	}
}

func (ev *evaluator) mergeRet(i int, m taintMask, rt types.Type) {
	if m == 0 || killedType(rt) {
		return
	}
	old := ev.sum.retMask[i]
	if old|m != old {
		ev.sum.retMask[i] = old | m
		ev.sumChanged = true
		ev.changed = true
	}
}

// callArg pairs one call operand (receiver included, first) with its
// taint mask and the callee parameter index it feeds.
type callArg struct {
	expr  ast.Expr
	mask  taintMask
	param int
}

// callMasks evaluates a call: classifies sink effects (direct external
// sinks and sinks inherited through module callees' summaries) and
// returns the per-result taint masks.
func (ev *evaluator) callMasks(call *ast.CallExpr) []taintMask {
	info := ev.info()
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() { // conversion
		if len(call.Args) == 1 {
			return []taintMask{ev.mask(call.Args[0])}
		}
		return []taintMask{0}
	}
	if tv, ok := info.Types[call.Fun]; ok && tv.IsBuiltin() {
		return ev.builtinCall(call)
	}
	callee := staticCallee(info, call)
	if callee == nil { // dynamic call through a function value
		m := ev.mask(call.Fun)
		for _, a := range call.Args {
			m |= ev.mask(a)
		}
		return []taintMask{m}
	}

	sig, _ := callee.Type().(*types.Signature)
	var dargs []callArg
	base := 0
	if sig != nil && sig.Recv() != nil {
		base = 1
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if s, ok := info.Selections[sel]; ok && s.Kind() == types.MethodVal {
				dargs = append(dargs, callArg{sel.X, ev.mask(sel.X), 0})
			}
		}
	}
	np := 0
	if sig != nil {
		np = sig.Params().Len()
	}
	for i, a := range call.Args {
		pi := i
		if sig != nil && sig.Variadic() && pi >= np-1 {
			pi = np - 1
		}
		if pi >= np {
			pi = np - 1
		}
		dargs = append(dargs, callArg{a, ev.mask(a), base + pi})
	}

	if csum, ok := ev.ix.summaries[callee]; ok {
		return ev.localCall(call, csum, dargs)
	}
	return ev.externalCall(call, callee, dargs, base)
}

func (ev *evaluator) localCall(call *ast.CallExpr, csum *summary, dargs []callArg) []taintMask {
	for _, a := range dargs {
		if a.mask == 0 || a.param < 0 || a.param >= len(csum.paramSink) {
			continue
		}
		hit := csum.paramSink[a.param]
		if hit == nil || !sinkValueFires(ev.info().TypeOf(a.expr)) {
			continue
		}
		ev.applySinkHit(call.Pos(), a.mask, sinkHit{
			cat:  hit.cat,
			sink: hit.sink,
			via:  prependVia(csum.fd.name(), hit.via),
		})
	}
	out := make([]taintMask, len(csum.retMask))
	for j, rm := range csum.retMask {
		var m taintMask
		if rm&maskSource != 0 {
			m |= maskSource
		}
		for pi := range csum.params {
			if rm&paramBit(pi) == 0 {
				continue
			}
			for _, a := range dargs {
				if a.param == pi {
					m |= a.mask
				}
			}
		}
		out[j] = m
	}
	return out
}

func (ev *evaluator) externalCall(call *ast.CallExpr, callee *types.Func, dargs []callArg, base int) []taintMask {
	if cat, sink, data := externalSink(ev.info(), call, callee, base, len(dargs)); cat != "" {
		for _, di := range data {
			a := dargs[di]
			if a.mask == 0 || !sinkValueFires(ev.info().TypeOf(a.expr)) {
				continue
			}
			ev.applySinkHit(call.Pos(), a.mask, sinkHit{cat: cat, sink: sink})
		}
	}
	// Conservative: every result of an unknown callee carries the union
	// of everything passed in (receiver included).
	var m taintMask
	for _, a := range dargs {
		m |= a.mask
	}
	n := 1
	if sig, ok := callee.Type().(*types.Signature); ok && sig.Results().Len() > 0 {
		n = sig.Results().Len()
	}
	out := make([]taintMask, n)
	for j := range out {
		out[j] = m
	}
	return out
}

func (ev *evaluator) builtinCall(call *ast.CallExpr) []taintMask {
	name := ""
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		name = f.Name
	case *ast.SelectorExpr:
		name = f.Sel.Name
	}
	switch name {
	case "append", "min", "max":
		var m taintMask
		for _, a := range call.Args {
			m |= ev.mask(a)
		}
		return []taintMask{m}
	case "copy":
		if len(call.Args) == 2 {
			ev.assignTo(call.Args[0], ev.mask(call.Args[1]))
		}
	}
	return []taintMask{0}
}

// applySinkHit routes a tainted value arriving at a sink: source taint
// becomes a finding here; parameter taint becomes part of this
// function's exported contract. Allowlisted endpoints export nothing.
func (ev *evaluator) applySinkHit(pos token.Pos, m taintMask, hit sinkHit) {
	if ev.sum.allowed {
		return
	}
	// A pridlint:allow on the sink line sanctions the emission itself, so
	// it suppresses both the local finding and the param-sink export —
	// one annotation at the root clears every caller charged through it.
	if p := ev.ix.Fset.Position(pos); ev.ix.allow.allowsAt(p.Filename, p.Line, AnalyzerLeakSurface.Name) {
		return
	}
	if m&maskSource != 0 && !ev.sum.seen[pos] {
		ev.sum.seen[pos] = true
		ev.sum.findings = append(ev.sum.findings, leakFinding{pos: pos, hit: hit})
		ev.sumChanged = true
		ev.changed = true
	}
	for i := range ev.sum.params {
		if m&paramBit(i) != 0 && ev.sum.paramSink[i] == nil {
			h := hit
			ev.sum.paramSink[i] = &h
			ev.sumChanged = true
			ev.changed = true
		}
	}
}

func prependVia(name string, via []string) []string {
	out := append([]string{name}, via...)
	if len(out) > 4 {
		out = out[:4]
	}
	return out
}

// externalSink classifies a call out of the module as a leakage sink.
// It returns the category, a rendered sink name, and the indices into
// the (receiver-first) operand list holding the data being emitted.
func externalSink(info *types.Info, call *ast.CallExpr, callee *types.Func, base, nargs int) (cat, sink string, data []int) {
	full := callee.FullName()
	argIdx := func(is ...int) []int {
		var out []int
		for _, i := range is {
			if base+i < nargs {
				out = append(out, base+i)
			}
		}
		return out
	}
	allArgs := func(from int) []int {
		var out []int
		for i := base + from; i < nargs; i++ {
			out = append(out, i)
		}
		return out
	}
	switch full {
	case "(net/http.ResponseWriter).Write":
		return "http-response", full, argIdx(0)
	case "net/http.Error":
		return "http-response", full, argIdx(1)
	case "(*encoding/json.Encoder).Encode":
		return "marshal", full, argIdx(0)
	case "encoding/json.Marshal", "encoding/json.MarshalIndent":
		return "marshal", full, argIdx(0)
	case "(*encoding/gob.Encoder).Encode":
		return "marshal", full, argIdx(0)
	case "encoding/binary.Write":
		return "wire", full, argIdx(2)
	}
	if pkg := callee.Pkg(); pkg != nil && pkg.Path() == "log/slog" {
		return "log", full, allArgs(0)
	}
	// fmt.Fprint* straight into an HTTP response writer.
	if pkg := callee.Pkg(); pkg != nil && pkg.Path() == "fmt" &&
		strings.HasPrefix(callee.Name(), "Fprint") && len(call.Args) > 0 {
		if isNamedType(info.TypeOf(call.Args[0]), "net/http", "ResponseWriter") {
			return "http-response", full, allArgs(1)
		}
	}
	return "", "", nil
}

func isNamedType(t types.Type, path, name string) bool {
	for {
		p, ok := t.(*types.Pointer)
		if !ok {
			break
		}
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == path && obj.Name() == name
}
