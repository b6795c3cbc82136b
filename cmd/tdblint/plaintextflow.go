package main

import (
	"fmt"
	"go/ast"
	"go/types"
	"os"
	"sort"
	"strings"
)

// plaintext-flow proves the paper's trust-model invariant as a compile-time
// gate: every byte that reaches untrusted storage is encrypted (DESIGN.md
// §9). It runs the dataflow engine in dataflow.go over the whole module and
// reports any taint path from a plaintext source to an untrusted write that
// does not pass through the sec crypto suite.
//
//	sources     sec Suite.Decrypt and Suite.Open results, and their record
//	            argument from the call on (both work in place); key material from
//	            deriveKey in internal/sec; parameters named plaintext/plain
//	            (the module convention for caller-supplied object payloads)
//	sanitizers  sec Encrypt / Seal / Digest / Hash / MAC / Name — after these
//	            the bytes are ciphertext, a digest, an authenticator, or a label
//	sinks       Write/WriteAt on a type declared in internal/platform, or on
//	            a plain io.Writer/io.WriterAt (an untrusted stream, e.g. a
//	            backup target)
//
// The sanitizer rule fires before function summaries on purpose: a concrete
// Encrypt implementation copies its plaintext parameter into the output
// buffer before encrypting in place, and a summary of that body would claim
// the plaintext escapes. Calls with no source, sanitizer, sink, or module
// summary (stdlib, function values) are treated as clean — the known
// unsoundness of the engine, traded for zero false positives on e.g.
// binary.PutUint64 framing.
//
// Scope: everything but internal/platform (the trusted wrappers below the
// boundary are where the writes happen) and internal/bdb (serial shim).

// flowAnalyzedPkg reports whether a package participates in the taint
// fixpoint.
func (l *linter) flowAnalyzedPkg(pkg *Package) bool {
	return pkg != nil && !pathIn(pkg.Path, lockedIOExcluded...)
}

// secDeclared reports whether the callee is declared in internal/sec or is
// a method on a type declared there (covering both the Suite interface and
// its concrete implementations).
func secDeclared(pkg *Package, call *ast.CallExpr, callee *types.Func) bool {
	if p := callee.Pkg(); p != nil && pathIn(p.Path(), "internal/sec") {
		return true
	}
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if selection, ok := pkg.Info.Selections[sel]; ok {
			if named := derefNamed(selection.Recv()); named != nil {
				if p := named.Obj().Pkg(); p != nil && pathIn(p.Path(), "internal/sec") {
					return true
				}
			}
		}
	}
	return false
}

// flowSourceCall returns a source description if the call introduces
// plaintext or key material. inPlace reports that the call also overwrites
// its first argument with that plaintext: Decrypt and Open work in place.
func (l *linter) flowSourceCall(pkg *Package, call *ast.CallExpr, callee *types.Func) (desc string, inPlace bool) {
	switch callee.Name() {
	case "Decrypt", "Open":
		if secDeclared(pkg, call, callee) {
			p := l.mod.relPos(call.Pos())
			return fmt.Sprintf("plaintext decrypted at %s:%d", p.Filename, p.Line), true
		}
	case "deriveKey":
		if p := callee.Pkg(); p != nil && pathIn(p.Path(), "internal/sec") {
			pos := l.mod.relPos(call.Pos())
			return fmt.Sprintf("key material derived at %s:%d", pos.Filename, pos.Line), false
		}
	}
	return "", false
}

// flowSanitizers are the sec suite calls whose results are safe to persist.
var flowSanitizers = map[string]bool{"Encrypt": true, "Seal": true, "Digest": true, "Hash": true, "MAC": true, "Name": true}

func (l *linter) flowSanitizerCall(pkg *Package, call *ast.CallExpr, callee *types.Func) bool {
	return flowSanitizers[callee.Name()] && secDeclared(pkg, call, callee)
}

// isPublicDecl reports whether fd is a declared declassification point: a
// function annotated
//
//	//tdblint:public <reason>
//
// whose results are public by design — the module's equivalent of
// //tdblint:serial for the trust boundary. The canonical examples are the
// Merkle root-hash getters: the root is a one-way digest published as the
// tamper-evidence commitment (MACed wherever it is persisted), even though
// its bytes dataflow-derive from the decrypted checkpoint payload. A
// reasonless annotation is reported and does not count, exactly like a
// reasonless serialization point.
func (l *linter) isPublicDecl(fd *ast.FuncDecl) bool {
	if v, cached := l.flowPublic[fd]; cached {
		return v
	}
	v := false
	if fd.Doc != nil {
		for _, c := range fd.Doc.List {
			if rest, ok := strings.CutPrefix(c.Text, "//tdblint:public"); ok {
				if strings.TrimSpace(rest) == "" {
					l.findings = append(l.findings, Finding{Pos: l.mod.relPos(c.Pos()), Analyzer: "plaintext-flow",
						Message: "//tdblint:public without a reason; document why this function's results are safe to persist unencrypted"})
				} else {
					v = true
				}
			}
		}
	}
	l.flowPublic[fd] = v
	return v
}

// ioWriterNames are the io interfaces whose Write/WriteAt is an untrusted
// stream when used as a static receiver type.
var ioWriterNames = map[string]bool{
	"Writer": true, "WriterAt": true, "WriteCloser": true,
	"ReadWriter": true, "ReadWriteCloser": true, "ReadWriteSeeker": true,
}

// flowSinkCall resolves a call to an untrusted write and returns the sink
// description. The tainted payload is argument 0 for both Write(p) and
// WriteAt(p, off).
func (l *linter) flowSinkCall(pkg *Package, call *ast.CallExpr, callee *types.Func) (string, bool) {
	name := callee.Name()
	if name != "Write" && name != "WriteAt" {
		return "", false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	selection, ok := pkg.Info.Selections[sel]
	if !ok {
		return "", false
	}
	named := derefNamed(selection.Recv())
	if named == nil {
		return "", false
	}
	obj := named.Obj()
	p := obj.Pkg()
	if p == nil {
		return "", false
	}
	if pathIn(p.Path(), "internal/platform") || (p.Path() == "io" && ioWriterNames[obj.Name()]) {
		return fmt.Sprintf("(%s.%s).%s", p.Path(), obj.Name(), name), true
	}
	return "", false
}

// plaintextFlow runs the module-wide taint fixpoint, then a reporting pass
// with the converged summaries and field taint.
func (l *linter) plaintextFlow() {
	l.flows = make(map[*types.Func]*flowSummary)
	l.taintedFields = make(map[fieldKey]string)
	l.flowSeen = make(map[string]bool)
	l.flowPublic = make(map[*ast.FuncDecl]bool)

	eachFunc := func(visit func(pkg *Package, fd *ast.FuncDecl, fn *types.Func)) {
		for _, pkg := range l.mod.Pkgs {
			if !l.flowAnalyzedPkg(pkg) {
				continue
			}
			for _, file := range pkg.Files {
				for _, decl := range file.Decls {
					fd, ok := decl.(*ast.FuncDecl)
					if !ok || fd.Body == nil {
						continue
					}
					fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
					if !ok {
						continue
					}
					visit(pkg, fd, fn)
				}
			}
		}
	}

	// Fixpoint: function summaries and the global field-taint set grow
	// monotonically until a full round changes nothing. 20 rounds bounds
	// pathological chains; the live tree converges in a handful.
	for round := 0; round < 20; round++ {
		l.flowChanged = false
		eachFunc(func(pkg *Package, fd *ast.FuncDecl, fn *types.Func) {
			sum := l.analyzeFlowFn(pkg, fd, false)
			if old := l.flows[fn]; old == nil || old.canon() != sum.canon() {
				l.flows[fn] = sum
				l.flowChanged = true
			}
		})
		if !l.flowChanged {
			break
		}
	}
	eachFunc(func(pkg *Package, fd *ast.FuncDecl, fn *types.Func) {
		l.analyzeFlowFn(pkg, fd, true)
	})

	if os.Getenv("TDBLINT_DEBUG_FLOW") != "" {
		var keys []string
		byKey := make(map[string]fieldKey)
		for fk := range l.taintedFields {
			k := fk.typ + "." + fk.field
			keys = append(keys, k)
			byKey[k] = fk
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(os.Stderr, "tdblint: tainted field %s ← %s\n", k, l.taintedFields[byKey[k]])
		}
	}
}
