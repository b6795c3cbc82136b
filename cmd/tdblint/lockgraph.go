package main

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// locked-io enforces the PR-1 commit-pipeline invariant (DESIGN.md §3, §6):
// platform store I/O and crypto-suite work must not be reachable while a
// sync.Mutex/RWMutex is held, except inside declared serialization points.
// A serialization point is a function that by design runs with the store
// mutex held — named with the package convention *Locked, or annotated
// with //tdblint:serial <reason> — and is reviewed at its declaration; the
// analyzer does not descend into it. Everything else that executes between
// a Lock() and its Unlock() is walked transitively through the module call
// graph, and any path that reaches the sec crypto suite or the platform
// storage interfaces is reported at the outermost lock-held call.
//
// A serialization point only stops the walk within its own package: a
// *Locked name vouches for running under that package's own mutex, not the
// caller's. The MVCC snapshot read path is why this matters — resolving a
// version under versionTable.mu must never fall back into the chunk store
// (whose Read reaches platform I/O, its map-node paging through the chunk
// store's own serialization point loadChild);
// lock-held chains that cross a package boundary are therefore walked
// through the callee package's serialization points down to the sink.
//
// Scope: the engine layers. internal/platform is excluded (its wrappers
// take micro-mutexes around the very I/O they instrument), as is
// internal/bdb (a deliberately serial compatibility shim).
//
// unlock-path, sharing the same lock-region machinery, reports a return
// executed while a non-deferred lock is held, and a Lock() with neither a
// deferred nor a following Unlock() in the function.

// lockedIOExcluded lists package suffixes locked-io does not analyze.
var lockedIOExcluded = []string{"internal/platform", "internal/bdb"}

// sinkWhitelist names platform/sec functions that are safe under a lock:
// pure computations with no I/O and no bulk crypto.
var sinkWhitelist = map[string]bool{
	"IsTransient": true, // errors.Is wrapper
	"HashEqual":   true, // constant-time compare
	"Name":        true, "HashSize": true,
}

// declKey memoizes sink reachability per (function, origin package): the
// same callee may stop at a serialization point for an intra-package walk
// yet be walked through it when the locked region lives in another package.
type declKey struct {
	fn     *types.Func
	origin string
}

// sinkHit describes the first platform/sec sink found through a callee,
// as a human-readable call chain.
type sinkHit struct {
	chain string
}

// lockEvent is one mutex operation in a function body, in source order.
type lockEvent struct {
	recv     string // rendered receiver expression, e.g. "s.mu"
	read     bool   // RLock/RUnlock
	unlock   bool
	deferred bool
	pos      token.Pos
}

// lockRegion is a span of a function body during which a lock is held.
type lockRegion struct {
	recv       string
	start, end token.Pos
	// leaked marks a Lock with no subsequent or deferred Unlock.
	leaked bool
	// covered marks a lock released by a deferred Unlock (safe on every
	// return path).
	covered bool
}

// mutexMethod resolves a call to (*sync.Mutex)/(*sync.RWMutex) Lock,
// Unlock, RLock, RUnlock (including promoted embedded mutexes) and returns
// the rendered receiver expression.
func (l *linter) mutexMethod(pkg *Package, call *ast.CallExpr) (recv string, name string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	selection, isMethod := pkg.Info.Selections[sel]
	if !isMethod {
		return "", "", false
	}
	fn, isFunc := selection.Obj().(*types.Func)
	if !isFunc || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", "", false
	}
	switch fn.Name() {
	case "Lock", "Unlock", "RLock", "RUnlock":
		return types.ExprString(sel.X), fn.Name(), true
	}
	return "", "", false
}

// lockEvents collects the mutex operations of a function body in source
// order. go/ast traverses sequential statements in order, which is what
// the region pairing below relies on.
func (l *linter) lockEvents(pkg *Package, body *ast.BlockStmt) []lockEvent {
	var events []lockEvent
	ast.Inspect(body, func(n ast.Node) bool {
		if d, isDefer := n.(*ast.DeferStmt); isDefer {
			call := d.Call
			if recv, name, ok := l.mutexMethod(pkg, call); ok {
				events = append(events, lockEvent{
					recv: recv, read: strings.HasPrefix(name, "R"),
					unlock: strings.HasSuffix(name, "Unlock"), deferred: true, pos: call.Pos(),
				})
				return false
			}
			return true
		}
		call, isCall := n.(*ast.CallExpr)
		if !isCall {
			return true
		}
		if recv, name, ok := l.mutexMethod(pkg, call); ok {
			events = append(events, lockEvent{
				recv: recv, read: strings.HasPrefix(name, "R"),
				unlock: strings.HasSuffix(name, "Unlock"), pos: call.Pos(),
			})
		}
		return true
	})
	return events
}

// lockRegions pairs each Lock/RLock with the release that ends it: the
// first matching non-deferred Unlock that follows it in source order, or
// the end of the function when the Unlock is deferred (covered) or missing
// (leaked).
func (l *linter) lockRegions(pkg *Package, body *ast.BlockStmt) []lockRegion {
	events := l.lockEvents(pkg, body)
	var regions []lockRegion
	for i, ev := range events {
		if ev.unlock {
			continue
		}
		r := lockRegion{recv: ev.recv, start: ev.pos, end: body.End()}
		matched := false
		for _, later := range events[i+1:] {
			if later.unlock && !later.deferred && later.recv == ev.recv && later.read == ev.read {
				r.end = later.pos
				matched = true
				break
			}
		}
		if !matched {
			deferredUnlock := false
			for _, other := range events {
				if other.unlock && other.deferred && other.recv == ev.recv && other.read == ev.read {
					deferredUnlock = true
					break
				}
			}
			if deferredUnlock {
				r.covered = true
			} else {
				r.leaked = true
			}
		}
		regions = append(regions, r)
	}
	return regions
}

// isSerialDecl reports whether fd is a declared serialization point:
// named *Locked, or carrying a //tdblint:serial comment with a reason.
// A reasonless //tdblint:serial is reported once as a bare-ignore-class
// finding and does not count.
func (l *linter) isSerialDecl(fd *ast.FuncDecl) bool {
	if v, cached := l.serial[fd]; cached {
		return v
	}
	v := strings.HasSuffix(fd.Name.Name, "Locked")
	if !v && fd.Doc != nil {
		for _, c := range fd.Doc.List {
			if rest, ok := strings.CutPrefix(c.Text, "//tdblint:serial"); ok {
				if strings.TrimSpace(rest) == "" {
					l.findings = append(l.findings, Finding{Pos: l.mod.relPos(c.Pos()), Analyzer: "locked-io",
						Message: "//tdblint:serial without a reason; document why this function may hold the lock across I/O or crypto"})
				} else {
					v = true
				}
			}
		}
	}
	l.serial[fd] = v
	return v
}

// calleeFunc resolves the called function object of a call expression, if
// it is a statically known function or method.
func calleeFunc(pkg *Package, call *ast.CallExpr) *types.Func {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if fn, ok := pkg.Info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if selection, ok := pkg.Info.Selections[fun]; ok {
			if fn, ok := selection.Obj().(*types.Func); ok {
				return fn
			}
			return nil
		}
		// Qualified identifier: pkg.Func.
		if fn, ok := pkg.Info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// isSink reports whether a call lands in the platform storage interfaces or
// the sec crypto suite. Interface methods promoted from io (platform.File
// embeds io.ReaderAt/io.WriterAt) are attributed to the receiver's package.
func isSink(pkg *Package, call *ast.CallExpr, fn *types.Func) bool {
	if fn == nil || sinkWhitelist[fn.Name()] {
		return false
	}
	if fnPkg := fn.Pkg(); fnPkg != nil && pathIn(fnPkg.Path(), "internal/platform", "internal/sec") {
		return true
	}
	// Method whose receiver type is declared in platform/sec, even if the
	// method itself comes from an embedded stdlib interface.
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if selection, ok := pkg.Info.Selections[sel]; ok {
			t := selection.Recv()
			if ptr, isPtr := t.(*types.Pointer); isPtr {
				t = ptr.Elem()
			}
			if named, isNamed := t.(*types.Named); isNamed {
				if p := named.Obj().Pkg(); p != nil && pathIn(p.Path(), "internal/platform", "internal/sec") {
					return true
				}
			}
		}
	}
	return false
}

// reachesSink walks the module call graph from fn looking for a
// platform/sec sink, memoized per origin package, stopping at declared
// serialization points — but only those declared in the origin package
// itself, where the convention's "runs with the store mutex held" claim
// actually refers to the lock the caller is holding. In-progress cycles
// resolve to "no sink" for the back edge.
func (l *linter) reachesSink(fn *types.Func, origin string) *sinkHit {
	key := declKey{fn: fn, origin: origin}
	if hit, done := l.reach[key]; done {
		return hit
	}
	l.reach[key] = nil // cycle guard
	decl, inModule := l.mod.funcDecls[fn]
	if !inModule {
		return nil
	}
	declPkg := l.mod.declPkg[decl]
	if declPkg.Path == origin && l.isSerialDecl(decl) {
		return nil
	}
	var hit *sinkHit
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		if hit != nil {
			return false
		}
		call, isCall := n.(*ast.CallExpr)
		if !isCall {
			return true
		}
		callee := calleeFunc(declPkg, call)
		if callee == nil {
			return true
		}
		if isSink(declPkg, call, callee) {
			hit = &sinkHit{chain: fn.Name() + " → " + callee.FullName()}
			return false
		}
		if sub := l.reachesSink(callee, origin); sub != nil {
			hit = &sinkHit{chain: fn.Name() + " → " + sub.chain}
			return false
		}
		return true
	})
	l.reach[key] = hit
	return hit
}

// lockedIO analyzes one package: every call issued while a lock region is
// active must not reach a platform/sec sink.
func (l *linter) lockedIO(pkg *Package) {
	if pathIn(pkg.Path, lockedIOExcluded...) {
		return
	}
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fd, isFunc := decl.(*ast.FuncDecl)
			if !isFunc || fd.Body == nil {
				continue
			}
			l.isSerialDecl(fd) // validate any //tdblint:serial annotation
			regions := l.lockRegions(pkg, fd.Body)
			if len(regions) == 0 {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				// Goroutine bodies do not run under the spawning region's lock.
				if g, isGo := n.(*ast.GoStmt); isGo {
					if _, isLit := g.Call.Fun.(*ast.FuncLit); isLit {
						return false
					}
				}
				call, isCall := n.(*ast.CallExpr)
				if !isCall {
					return true
				}
				if _, _, isMutexOp := l.mutexMethod(pkg, call); isMutexOp {
					return true
				}
				held := ""
				for _, r := range regions {
					if call.Pos() > r.start && call.Pos() < r.end {
						held = r.recv
						break
					}
				}
				if held == "" {
					return true
				}
				callee := calleeFunc(pkg, call)
				if callee == nil {
					return true
				}
				if isSink(pkg, call, callee) {
					l.report(call.Pos(), "locked-io",
						"%s called while %s is held; move I/O and crypto off the critical section or declare a serialization point (*Locked / //tdblint:serial)",
						callee.FullName(), held)
					return true
				}
				if decl, inModule := l.mod.funcDecls[callee]; inModule &&
					l.mod.declPkg[decl].Path == pkg.Path && l.isSerialDecl(decl) {
					return true
				}
				if hit := l.reachesSink(callee, pkg.Path); hit != nil {
					l.report(call.Pos(), "locked-io",
						"call reaches platform/sec work while %s is held (%s); move it off the critical section or declare a serialization point (*Locked / //tdblint:serial)",
						held, hit.chain)
				}
				return true
			})
		}
	}
}

// unlockPath analyzes one package for lock/unlock pairing: a return while
// a non-deferred lock is held, or a lock that is never released.
func (l *linter) unlockPath(pkg *Package) {
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fd, isFunc := decl.(*ast.FuncDecl)
			if !isFunc || fd.Body == nil {
				continue
			}
			for _, r := range l.lockRegions(pkg, fd.Body) {
				if r.covered {
					continue
				}
				if r.leaked {
					l.report(r.start, "unlock-path",
						"%s.Lock() with no deferred or subsequent Unlock in %s", r.recv, fd.Name.Name)
					continue
				}
				region := r
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					ret, isRet := n.(*ast.ReturnStmt)
					if !isRet || ret.Pos() <= region.start || ret.Pos() >= region.end {
						return true
					}
					l.report(ret.Pos(), "unlock-path",
						"return while %s is held and its Unlock is not deferred (locked at line %d)",
						region.recv, l.mod.relPos(region.start).Line)
					return true
				})
			}
		}
	}
}
