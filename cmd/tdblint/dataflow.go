package main

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// dataflow.go is the interprocedural taint engine under plaintext-flow
// (DESIGN.md §9). It tracks where a value's bytes may have come from —
// through assignments, slices, appends, composite literals, struct fields,
// and call boundaries — using per-function summaries memoized like the
// locked-io reach map, plus a module-wide tainted-field set computed to a
// fixpoint. The engine is deliberately byte-oriented: scalar values (and
// scalar-only structs like chunkstore.Location) never carry taint, which is
// what lets the plaintext-but-MACed superblock metadata stay clean while a
// decrypted payload routed to the same WriteAt is reported.

// A taintSet tracks the possible origins of a value's bytes. Keys are
// "p<N>" — "parameter N of the function under analysis" (the receiver is
// parameter 0 of a method) — and "s:<desc>" for a concrete source such as
// a Decrypt result. Sets are treated as immutable once returned; merging
// allocates.
type taintSet map[string]bool

func paramTaint(i int) taintSet        { return taintSet{fmt.Sprintf("p%d", i): true} }
func sourceTaint(desc string) taintSet { return taintSet{"s:" + desc: true} }

// tsUnion merges two taint sets without mutating either.
func tsUnion(a, b taintSet) taintSet {
	if len(b) == 0 {
		return a
	}
	if len(a) == 0 {
		return b
	}
	out := make(taintSet, len(a)+len(b))
	for k := range a {
		out[k] = true
	}
	for k := range b {
		out[k] = true
	}
	return out
}

// split separates a taint set into parameter indices and concrete source
// descriptions, each sorted for deterministic reporting.
func (t taintSet) split() (params []int, srcs []string) {
	for k := range t {
		if rest, ok := strings.CutPrefix(k, "s:"); ok {
			srcs = append(srcs, rest)
		} else {
			var i int
			fmt.Sscanf(k, "p%d", &i)
			params = append(params, i)
		}
	}
	sort.Ints(params)
	sort.Strings(srcs)
	return
}

// fieldKey identifies one struct field module-wide.
type fieldKey struct {
	typ   string // fully qualified named type, e.g. "tdb/internal/chunkstore.batchOp"
	field string
}

func (fk fieldKey) String() string {
	typ := fk.typ
	if i := strings.LastIndex(typ, "/"); i >= 0 {
		typ = typ[i+1:]
	}
	return typ + "." + fk.field
}

// flowSummary is the memoized dataflow behavior of one declared function,
// with parameters indexed receiver-first.
type flowSummary struct {
	// paramSink maps a parameter to the call chain by which bytes passed in
	// that position reach an untrusted write; the chain ends at the sink.
	paramSink map[int]string
	// paramResult maps a parameter to the result indices its bytes flow into.
	paramResult map[int]map[int]bool
	// paramField maps a parameter to the struct fields it is stored into.
	paramField map[int]map[fieldKey]bool
	// resultTaint maps a result index to the concrete sources flowing into
	// it independent of any parameter.
	resultTaint map[int]map[string]bool
}

func newFlowSummary() *flowSummary {
	return &flowSummary{
		paramSink:   make(map[int]string),
		paramResult: make(map[int]map[int]bool),
		paramField:  make(map[int]map[fieldKey]bool),
		resultTaint: make(map[int]map[string]bool),
	}
}

// canon renders the summary canonically so the fixpoint driver can compare
// rounds with a string equality.
func (s *flowSummary) canon() string {
	var b strings.Builder
	var keys []int
	for k := range s.paramSink {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "sink %d %s\n", k, s.paramSink[k])
	}
	keys = keys[:0]
	for k := range s.paramResult {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	for _, k := range keys {
		var rs []int
		for r := range s.paramResult[k] {
			rs = append(rs, r)
		}
		sort.Ints(rs)
		fmt.Fprintf(&b, "res %d %v\n", k, rs)
	}
	keys = keys[:0]
	for k := range s.paramField {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	for _, k := range keys {
		var fs []string
		for fk := range s.paramField[k] {
			fs = append(fs, fk.typ+"."+fk.field)
		}
		sort.Strings(fs)
		fmt.Fprintf(&b, "field %d %v\n", k, fs)
	}
	keys = keys[:0]
	for k := range s.resultTaint {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	for _, k := range keys {
		var ds []string
		for d := range s.resultTaint[k] {
			ds = append(ds, d)
		}
		sort.Strings(ds)
		fmt.Fprintf(&b, "rtaint %d %v\n", k, ds)
	}
	return b.String()
}

// taintableType reports whether values of this type can carry plaintext
// bytes at all. Scalars — and structs composed only of scalars, like
// chunkstore.Location — are declassified: a length, offset, or commit stamp
// derived from a decrypted buffer is not the plaintext.
func taintableType(t types.Type) bool {
	return taintable(t, make(map[types.Type]bool))
}

func taintable(t types.Type, seen map[types.Type]bool) bool {
	t = types.Unalias(t)
	if seen[t] {
		return false
	}
	seen[t] = true
	switch u := t.(type) {
	case *types.Basic:
		return u.Info()&types.IsString != 0
	case *types.Slice, *types.Array, *types.Map, *types.Chan, *types.Interface, *types.TypeParam:
		return true
	case *types.Pointer:
		return taintable(u.Elem(), seen)
	case *types.Named:
		return taintable(u.Underlying(), seen)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if taintable(u.Field(i).Type(), seen) {
				return true
			}
		}
		return false
	case *types.Signature, *types.Tuple:
		return false
	}
	return true
}

// flowFieldKey resolves a field selection to its module-wide key; scalar
// fields are not tracked.
func flowFieldKey(selection *types.Selection) (fieldKey, bool) {
	obj := selection.Obj()
	named := derefNamed(selection.Recv())
	if named == nil || named.Obj().Pkg() == nil || !taintableType(obj.Type()) {
		return fieldKey{}, false
	}
	return fieldKey{typ: named.Obj().Pkg().Path() + "." + named.Obj().Name(), field: obj.Name()}, true
}

// derefNamed resolves a type to its named form, unwrapping one pointer.
func derefNamed(t types.Type) *types.Named {
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	n, _ := t.(*types.Named)
	return n
}

// flowAnalysis is one pass over one function body. The environment maps
// local objects (parameters, locals, named results) to taint; statements
// are interpreted in source order and the body is re-interpreted until the
// environment stabilizes, so taint introduced late in a loop body reaches
// uses earlier in it.
type flowAnalysis struct {
	l       *linter
	pkg     *Package
	fd      *ast.FuncDecl
	name    string
	params  []types.Object // receiver-first; nil for unnamed parameters
	results []types.Object // named result objects; nil when unnamed
	nres    int
	env     map[types.Object]taintSet
	sum     *flowSummary
	// reporting enables finding emission (the final pass, after the
	// module-wide fixpoint converged).
	reporting bool
	changed   bool
}

// analyzeFlowFn interprets one function declaration and returns its
// summary. Called once per fixpoint round and once more for reporting.
func (l *linter) analyzeFlowFn(pkg *Package, fd *ast.FuncDecl, reporting bool) *flowSummary {
	fa := &flowAnalysis{
		l: l, pkg: pkg, fd: fd, name: fd.Name.Name,
		env: make(map[types.Object]taintSet),
		sum: newFlowSummary(), reporting: reporting,
	}
	collect := func(fl *ast.FieldList, into *[]types.Object) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			if len(f.Names) == 0 {
				*into = append(*into, nil)
				continue
			}
			for _, n := range f.Names {
				*into = append(*into, pkg.Info.Defs[n])
			}
		}
	}
	collect(fd.Recv, &fa.params)
	collect(fd.Type.Params, &fa.params)
	if fd.Type.Results != nil {
		collect(fd.Type.Results, &fa.results)
		fa.nres = len(fa.results)
	}
	for i, obj := range fa.params {
		if obj != nil && taintableType(obj.Type()) {
			fa.env[obj] = paramTaint(i)
		}
	}
	for it := 0; it < 8; it++ {
		fa.changed = false
		fa.stmt(fd.Body)
		if !fa.changed {
			break
		}
	}
	return fa.sum
}

// paramSourceDesc: a parameter named plaintext/plain is caller-supplied
// plaintext by the module's own naming convention; when its taint reaches
// a sink or a field, it is reported (or recorded) as a concrete source.
var plaintextParamNames = map[string]bool{"plaintext": true, "plain": true}

func (fa *flowAnalysis) paramSourceDesc(i int) string {
	if i < len(fa.params) && fa.params[i] != nil && plaintextParamNames[fa.params[i].Name()] {
		return fmt.Sprintf("caller-supplied plaintext parameter %q of %s", fa.params[i].Name(), fa.name)
	}
	return ""
}

func (fa *flowAnalysis) obj(id *ast.Ident) *types.Var {
	if o, ok := fa.pkg.Info.Uses[id].(*types.Var); ok {
		return o
	}
	if o, ok := fa.pkg.Info.Defs[id].(*types.Var); ok {
		return o
	}
	return nil
}

func (fa *flowAnalysis) envAdd(obj types.Object, t taintSet) {
	if obj == nil || len(t) == 0 {
		return
	}
	cur := fa.env[obj]
	grew := false
	for k := range t {
		if !cur[k] {
			grew = true
			break
		}
	}
	if grew {
		fa.env[obj] = tsUnion(cur, t)
		fa.changed = true
	}
}

// stmt interprets one statement.
func (fa *flowAnalysis) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case nil:
	case *ast.BlockStmt:
		for _, st := range s.List {
			fa.stmt(st)
		}
	case *ast.ExprStmt:
		fa.expr(s.X)
	case *ast.AssignStmt:
		fa.assign(s)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				if len(vs.Values) == 1 && len(vs.Names) > 1 {
					ts := fa.exprMulti(vs.Values[0], len(vs.Names))
					for i, n := range vs.Names {
						fa.envAdd(fa.pkg.Info.Defs[n], ts[i])
					}
					continue
				}
				for i, v := range vs.Values {
					t := fa.taintOf(v)
					if i < len(vs.Names) {
						fa.envAdd(fa.pkg.Info.Defs[vs.Names[i]], t)
					}
				}
			}
		}
	case *ast.ReturnStmt:
		fa.ret(s)
	case *ast.IfStmt:
		fa.stmt(s.Init)
		fa.expr(s.Cond)
		fa.stmt(s.Body)
		fa.stmt(s.Else)
	case *ast.ForStmt:
		fa.stmt(s.Init)
		if s.Cond != nil {
			fa.expr(s.Cond)
		}
		fa.stmt(s.Post)
		fa.stmt(s.Body)
	case *ast.RangeStmt:
		t := fa.taintOf(s.X)
		if s.Key != nil {
			fa.assignTo(s.Key, t)
		}
		if s.Value != nil {
			fa.assignTo(s.Value, t)
		}
		fa.stmt(s.Body)
	case *ast.SwitchStmt:
		fa.stmt(s.Init)
		if s.Tag != nil {
			fa.expr(s.Tag)
		}
		fa.stmt(s.Body)
	case *ast.TypeSwitchStmt:
		fa.stmt(s.Init)
		fa.stmt(s.Assign)
		fa.stmt(s.Body)
	case *ast.SelectStmt:
		fa.stmt(s.Body)
	case *ast.CaseClause:
		for _, e := range s.List {
			fa.expr(e)
		}
		for _, st := range s.Body {
			fa.stmt(st)
		}
	case *ast.CommClause:
		fa.stmt(s.Comm)
		for _, st := range s.Body {
			fa.stmt(st)
		}
	case *ast.SendStmt:
		fa.assignTo(s.Chan, fa.taintOf(s.Value))
	case *ast.GoStmt:
		// Taint still flows inside spawned goroutines (unlike lock
		// regions, which the goroutine does not inherit).
		fa.expr(s.Call)
	case *ast.DeferStmt:
		fa.expr(s.Call)
	case *ast.LabeledStmt:
		fa.stmt(s.Stmt)
	}
}

func (fa *flowAnalysis) assign(s *ast.AssignStmt) {
	if len(s.Rhs) == 1 && len(s.Lhs) > 1 {
		ts := fa.exprMulti(s.Rhs[0], len(s.Lhs))
		for i, lhs := range s.Lhs {
			fa.assignTo(lhs, ts[i])
		}
		return
	}
	for i, rhs := range s.Rhs {
		t := fa.taintOf(rhs)
		if i < len(s.Lhs) {
			fa.assignTo(s.Lhs[i], t)
		}
	}
}

// assignTo propagates taint into an assignment target: idents update the
// environment, field stores feed the module-wide field-taint set (and the
// containing object, conservatively), element and pointer stores taint the
// base object.
func (fa *flowAnalysis) assignTo(lhs ast.Expr, t taintSet) {
	if len(t) == 0 {
		return
	}
	switch e := lhs.(type) {
	case *ast.Ident:
		if e.Name == "_" {
			return
		}
		obj := fa.obj(e)
		if obj == nil || !taintableType(obj.Type()) {
			return
		}
		fa.envAdd(obj, t)
	case *ast.SelectorExpr:
		if selection, ok := fa.pkg.Info.Selections[e]; ok && selection.Kind() == types.FieldVal {
			if fk, ok := flowFieldKey(selection); ok {
				fa.recordFieldTaint(fk, t)
			}
		}
		fa.assignTo(e.X, t)
	case *ast.IndexExpr:
		fa.assignTo(e.X, t)
	case *ast.SliceExpr:
		fa.assignTo(e.X, t)
	case *ast.StarExpr:
		fa.assignTo(e.X, t)
	case *ast.ParenExpr:
		fa.assignTo(e.X, t)
	}
}

// recordFieldTaint stores taint flowing into a struct field: concrete
// sources (and plaintext-named parameters) taint the field module-wide;
// other parameter taint becomes part of this function's summary.
func (fa *flowAnalysis) recordFieldTaint(fk fieldKey, t taintSet) {
	params, srcs := t.split()
	for _, s := range srcs {
		fa.l.setFieldTaint(fk, s)
	}
	for _, p := range params {
		if d := fa.paramSourceDesc(p); d != "" {
			fa.l.setFieldTaint(fk, d)
			continue
		}
		m := fa.sum.paramField[p]
		if m == nil {
			m = make(map[fieldKey]bool)
			fa.sum.paramField[p] = m
		}
		m[fk] = true
	}
}

func (l *linter) setFieldTaint(fk fieldKey, desc string) {
	if _, ok := l.taintedFields[fk]; ok {
		return
	}
	l.taintedFields[fk] = desc
	l.flowChanged = true
}

func (fa *flowAnalysis) ret(s *ast.ReturnStmt) {
	if len(s.Results) == 0 {
		for i, obj := range fa.results {
			if obj != nil {
				fa.resultFlow(i, fa.env[obj])
			}
		}
		return
	}
	if len(s.Results) == 1 && fa.nres > 1 {
		ts := fa.exprMulti(s.Results[0], fa.nres)
		for i, t := range ts {
			fa.resultFlow(i, t)
		}
		return
	}
	for i, r := range s.Results {
		fa.resultFlow(i, fa.taintOf(r))
	}
}

func (fa *flowAnalysis) resultFlow(i int, t taintSet) {
	params, srcs := t.split()
	for _, p := range params {
		m := fa.sum.paramResult[p]
		if m == nil {
			m = make(map[int]bool)
			fa.sum.paramResult[p] = m
		}
		m[i] = true
	}
	for _, s := range srcs {
		m := fa.sum.resultTaint[i]
		if m == nil {
			m = make(map[string]bool)
			fa.sum.resultTaint[i] = m
		}
		m[s] = true
	}
}

// taintOf evaluates an expression and filters the result through the
// scalar-declassification rule: expressions of untaintable type carry
// nothing regardless of their inputs.
func (fa *flowAnalysis) taintOf(e ast.Expr) taintSet {
	t := fa.expr(e)
	if len(t) == 0 {
		return nil
	}
	if tv, ok := fa.pkg.Info.Types[e]; ok && tv.Type != nil && !taintableType(tv.Type) {
		return nil
	}
	return t
}

// expr evaluates an expression for taint, descending for side effects
// (calls, function literals) even where the result cannot carry taint.
func (fa *flowAnalysis) expr(e ast.Expr) taintSet {
	switch e := e.(type) {
	case *ast.Ident:
		if o := fa.obj(e); o != nil {
			return fa.env[o]
		}
	case *ast.CallExpr:
		var all taintSet
		for _, t := range fa.call(e) {
			all = tsUnion(all, t)
		}
		return all
	case *ast.SelectorExpr:
		if selection, ok := fa.pkg.Info.Selections[e]; ok && selection.Kind() == types.FieldVal {
			// Field reads are strictly field-sensitive: only the module-wide
			// taint recorded for this exact field flows out, never the taint
			// of the containing object. A struct holding a crypto suite (or
			// any tainted member) is not itself plaintext — what matters is
			// which fields the tainted bytes were stored into, and the
			// field-store machinery records exactly that.
			fa.expr(e.X)
			if fk, ok := flowFieldKey(selection); ok {
				if desc, tainted := fa.l.taintedFields[fk]; tainted {
					return sourceTaint(desc)
				}
			}
			return nil
		}
	case *ast.IndexExpr:
		fa.expr(e.Index)
		return fa.taintOf(e.X)
	case *ast.SliceExpr:
		for _, b := range []ast.Expr{e.Low, e.High, e.Max} {
			if b != nil {
				fa.expr(b)
			}
		}
		return fa.taintOf(e.X)
	case *ast.StarExpr:
		return fa.taintOf(e.X)
	case *ast.UnaryExpr:
		return fa.taintOf(e.X)
	case *ast.BinaryExpr:
		return tsUnion(fa.taintOf(e.X), fa.taintOf(e.Y))
	case *ast.ParenExpr:
		return fa.taintOf(e.X)
	case *ast.TypeAssertExpr:
		return fa.taintOf(e.X)
	case *ast.CompositeLit:
		return fa.composite(e)
	case *ast.FuncLit:
		// Closures are interpreted inline, sharing the enclosing
		// environment: captured plaintext is tracked through the
		// RetryPolicy.run funnel bodies this way.
		fa.stmt(e.Body)
	}
	return nil
}

// composite evaluates a composite literal. Slice/array/map literals carry
// the union of their elements (elements are not tracked individually).
// Struct literals instead feed the field-taint machinery exactly like
// field stores, and the struct *value* carries nothing — mirroring the
// field-sensitive read rule: a struct referencing tainted bytes is not
// itself tainted bytes.
func (fa *flowAnalysis) composite(e *ast.CompositeLit) taintSet {
	var st *types.Struct
	var named *types.Named
	if tv, ok := fa.pkg.Info.Types[e]; ok && tv.Type != nil {
		if named = derefNamed(tv.Type); named != nil {
			st, _ = named.Underlying().(*types.Struct)
		}
	}
	fkFor := func(fieldName string, fieldType types.Type) (fieldKey, bool) {
		if named == nil || named.Obj().Pkg() == nil || !taintableType(fieldType) {
			return fieldKey{}, false
		}
		return fieldKey{typ: named.Obj().Pkg().Path() + "." + named.Obj().Name(), field: fieldName}, true
	}
	var all taintSet
	for i, el := range e.Elts {
		kv, keyed := el.(*ast.KeyValueExpr)
		val := el
		if keyed {
			val = kv.Value
			fa.expr(kv.Key)
		}
		t := fa.taintOf(val)
		if len(t) == 0 {
			continue
		}
		if st == nil {
			all = tsUnion(all, t)
			continue
		}
		switch {
		case keyed:
			if id, ok := kv.Key.(*ast.Ident); ok {
				for j := 0; j < st.NumFields(); j++ {
					if f := st.Field(j); f.Name() == id.Name {
						if fk, ok := fkFor(f.Name(), f.Type()); ok {
							fa.recordFieldTaint(fk, t)
						}
						break
					}
				}
			}
		case i < st.NumFields():
			f := st.Field(i)
			if fk, ok := fkFor(f.Name(), f.Type()); ok {
				fa.recordFieldTaint(fk, t)
			}
		}
	}
	return all
}

// exprMulti evaluates a multi-value expression (call, comma-ok) into n
// slots.
func (fa *flowAnalysis) exprMulti(e ast.Expr, n int) []taintSet {
	out := make([]taintSet, n)
	switch e := e.(type) {
	case *ast.CallExpr:
		rs := fa.call(e)
		for i := 0; i < n && i < len(rs); i++ {
			out[i] = rs[i]
		}
	case *ast.TypeAssertExpr, *ast.IndexExpr, *ast.UnaryExpr:
		out[0] = fa.taintOf(e)
	default:
		out[0] = fa.taintOf(e)
	}
	return out
}

// call evaluates a call expression: conversions and builtins propagate,
// the plaintext-flow source/sanitizer/sink rules fire next (so Encrypt
// implementations in internal/sec cannot launder their own parameter into
// a "clean" summary), and finally module summaries apply.
func (fa *flowAnalysis) call(call *ast.CallExpr) []taintSet {
	if tv, ok := fa.pkg.Info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			return []taintSet{fa.taintOf(call.Args[0])}
		}
		return nil
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := fa.pkg.Info.Uses[id].(*types.Builtin); ok {
			return fa.builtin(b.Name(), call)
		}
	}
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		fa.stmt(lit.Body)
	}
	argT := make([]taintSet, len(call.Args))
	for i, a := range call.Args {
		argT[i] = fa.taintOf(a)
	}
	callee := calleeFunc(fa.pkg, call)
	if callee == nil {
		return nil
	}
	if src := fa.l.flowSourceCall(fa.pkg, call, callee); src != "" {
		out := make([]taintSet, resultCount(callee))
		for i := range out {
			out[i] = sourceTaint(src)
		}
		return out
	}
	if fa.l.flowSanitizerCall(fa.pkg, call, callee) {
		return nil
	}
	if decl, ok := fa.l.mod.funcDecls[callee]; ok && fa.l.isPublicDecl(decl) {
		return nil
	}
	if sinkDesc, ok := fa.l.flowSinkCall(fa.pkg, call, callee); ok {
		if len(argT) > 0 {
			fa.sinkReached(call.Pos(), argT[0], sinkDesc)
		}
		return nil
	}
	decl, inModule := fa.l.mod.funcDecls[callee]
	if !inModule || !fa.l.flowAnalyzedPkg(fa.l.mod.declPkg[decl]) {
		return nil
	}
	sum := fa.l.flows[callee]
	if sum == nil {
		return nil
	}
	full := argT
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if selection, ok := fa.pkg.Info.Selections[sel]; ok && selection.Kind() == types.MethodVal {
			full = append([]taintSet{fa.taintOf(sel.X)}, argT...)
		}
	}
	sig := callee.Signature()
	nparams := sig.Params().Len()
	if sig.Recv() != nil {
		nparams++
	}
	for i, t := range full {
		pi := i
		if pi >= nparams {
			if !sig.Variadic() {
				break
			}
			pi = nparams - 1
		}
		if len(t) == 0 {
			continue
		}
		if chain, ok := sum.paramSink[pi]; ok {
			fa.sinkReached(call.Pos(), t, callee.Name()+" → "+chain)
		}
		for fk := range sum.paramField[pi] {
			fa.recordFieldTaint(fk, t)
		}
	}
	out := make([]taintSet, resultCount(callee))
	for ri, descs := range sum.resultTaint {
		if ri >= len(out) {
			continue
		}
		for d := range descs {
			out[ri] = tsUnion(out[ri], sourceTaint(d))
		}
	}
	for pi, rset := range sum.paramResult {
		if pi >= len(full) || len(full[pi]) == 0 {
			continue
		}
		for ri := range rset {
			if ri < len(out) {
				out[ri] = tsUnion(out[ri], full[pi])
			}
		}
	}
	return out
}

func resultCount(fn *types.Func) int {
	return fn.Signature().Results().Len()
}

// builtin handles the propagating builtins: append unions its arguments,
// copy flows source into destination; everything else (len, cap, make,
// clear, ...) yields scalars or fresh memory.
func (fa *flowAnalysis) builtin(name string, call *ast.CallExpr) []taintSet {
	switch name {
	case "append":
		var all taintSet
		for _, a := range call.Args {
			all = tsUnion(all, fa.taintOf(a))
		}
		return []taintSet{all}
	case "copy":
		if len(call.Args) == 2 {
			fa.assignTo(call.Args[0], fa.taintOf(call.Args[1]))
		}
	default:
		for _, a := range call.Args {
			fa.expr(a)
		}
	}
	return nil
}

// sinkReached handles taint meeting an untrusted write: concrete sources
// (and plaintext-named parameters) report, parameter taint extends this
// function's summary so callers report at their own call sites.
func (fa *flowAnalysis) sinkReached(pos token.Pos, t taintSet, chain string) {
	params, srcs := t.split()
	for _, s := range srcs {
		fa.reportFlow(pos, s, chain)
	}
	for _, p := range params {
		if d := fa.paramSourceDesc(p); d != "" {
			fa.reportFlow(pos, d, chain)
		}
		if _, ok := fa.sum.paramSink[p]; !ok {
			fa.sum.paramSink[p] = chain
		}
	}
}

func (fa *flowAnalysis) reportFlow(pos token.Pos, srcDesc, chain string) {
	if !fa.reporting {
		return
	}
	key := fmt.Sprintf("%d|%s|%s", pos, srcDesc, chain)
	if fa.l.flowSeen[key] {
		return
	}
	fa.l.flowSeen[key] = true
	fa.l.report(pos, "plaintext-flow",
		"%s reaches %s without passing through sec.Suite.Encrypt; encrypt before handing bytes to the untrusted store", srcDesc, chain)
}
