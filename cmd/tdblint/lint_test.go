package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"go/ast"
	"go/token"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func runOn(t *testing.T, root string, only ...string) []Finding {
	t.Helper()
	mod, err := loadModule(root)
	if err != nil {
		t.Fatalf("loadModule(%s): %v", root, err)
	}
	enabled := make(map[string]bool)
	if len(only) == 0 {
		for _, n := range analyzerNames {
			enabled[n] = true
		}
	} else {
		for _, n := range only {
			enabled[n] = true
		}
	}
	l := &linter{mod: mod, enabled: enabled}
	return l.run()
}

// TestFixtureFindings asserts the exact diagnostics over the fixture module:
// one positive and one negative case per analyzer (negatives are silent, so
// only the positives appear), plus the reasonless- and unknown-analyzer
// ignore rejections.
func TestFixtureFindings(t *testing.T) {
	want := []string{
		`internal/chunkstore/clock.go:11: [clock-injection] bare time.Sleep in clock-injected code; thread the injectable clock (see chunkstore.RetryPolicy.Sleep) so tests stay deterministic`,
		`internal/chunkstore/clock.go:16: [clock-injection] bare time.Now in clock-injected code; thread the injectable clock (see chunkstore.RetryPolicy.Sleep) so tests stay deterministic`,
		`internal/chunkstore/flow.go:32: [plaintext-flow] plaintext decrypted at internal/chunkstore/flow.go:31 reaches writeRaw → (fixmod/internal/platform.File).WriteAt without passing through sec.Suite.Encrypt; encrypt before handing bytes to the untrusted store`,
		`internal/chunkstore/flow.go:38: [plaintext-flow] caller-supplied plaintext parameter "plain" of leakParam reaches writeRaw → (fixmod/internal/platform.File).WriteAt without passing through sec.Suite.Encrypt; encrypt before handing bytes to the untrusted store`,
		`internal/chunkstore/flow.go:50: [plaintext-flow] plaintext decrypted at internal/chunkstore/flow.go:43 reaches writeRaw → (fixmod/internal/platform.File).WriteAt without passing through sec.Suite.Encrypt; encrypt before handing bytes to the untrusted store`,
		`internal/chunkstore/harden.go:29: [locked-io] (fixmod/internal/platform.Counter).Increment called while s.mu is held; move I/O and crypto off the critical section or declare a serialization point (*Locked / //tdblint:serial)`,
		`internal/chunkstore/ignore.go:15: [bare-ignore] //tdblint:ignore without a reason; document why the invariant does not apply here`,
		`internal/chunkstore/ignore.go:16: [err-taxonomy] fmt.Errorf without %w mints an unclassifiable error; wrap a package sentinel or the underlying cause`,
		`internal/chunkstore/ignore.go:21: [bare-ignore] //tdblint:ignore names unknown analyzer "spellcheck"`,
		`internal/chunkstore/ignore.go:22: [err-taxonomy] fmt.Errorf without %w mints an unclassifiable error; wrap a package sentinel or the underlying cause`,
		`internal/chunkstore/ignore.go:28: [bare-ignore] //tdblint:ignore for clock-injection suppressed nothing; remove the stale directive`,
		`internal/chunkstore/lockedio.go:21: [locked-io] (fixmod/internal/platform.File).WriteAt called while s.mu is held; move I/O and crypto off the critical section or declare a serialization point (*Locked / //tdblint:serial)`,
		`internal/chunkstore/lockedio.go:21: [raw-io-funnel] direct (fixmod/internal/platform.File).WriteAt bypasses the retry/write-behind funnel; route raw file I/O through RetryPolicy.run (the segmentSet/superblock helpers)`,
		`internal/chunkstore/lockedio.go:29: [locked-io] call reaches platform/sec work while s.mu is held (digest → (fixmod/internal/sec.Suite).Hash); move it off the critical section or declare a serialization point (*Locked / //tdblint:serial)`,
		`internal/chunkstore/lockedio.go:39: [raw-io-funnel] direct (fixmod/internal/platform.File).WriteAt bypasses the retry/write-behind funnel; route raw file I/O through RetryPolicy.run (the segmentSet/superblock helpers)`,
		`internal/chunkstore/lockedio.go:51: [raw-io-funnel] direct (fixmod/internal/platform.File).WriteAt bypasses the retry/write-behind funnel; route raw file I/O through RetryPolicy.run (the segmentSet/superblock helpers)`,
		`internal/chunkstore/lockorder.go:23: [lock-order] chunkstore.door.mu acquired while chunkstore.wall.mu is held creates a cycle in the module lock graph (chunkstore.wall.mu → chunkstore.door.mu → chunkstore.wall.mu); take module mutexes in one global order`,
		`internal/chunkstore/lockorder.go:38: [lock-order] chunkstore.wall.mu acquired while chunkstore.door.mu is held (via grabWall) creates a cycle in the module lock graph (chunkstore.door.mu → chunkstore.wall.mu → chunkstore.door.mu); take module mutexes in one global order`,
		`internal/chunkstore/prefetch.go:86: [locked-io] (fixmod/internal/sec.Suite).Decrypt called while p.mu is held; move I/O and crypto off the critical section or declare a serialization point (*Locked / //tdblint:serial)`,
		`internal/chunkstore/rawio.go:19: [raw-io-funnel] direct (fixmod/internal/platform.File).ReadAt bypasses the retry/write-behind funnel; route raw file I/O through RetryPolicy.run (the segmentSet/superblock helpers)`,
		`internal/chunkstore/rawio.go:24: [raw-io-funnel] direct (fixmod/internal/platform.File).Truncate bypasses the retry/write-behind funnel; route raw file I/O through RetryPolicy.run (the segmentSet/superblock helpers)`,
		`internal/chunkstore/rawio.go:29: [raw-io-funnel] direct (fixmod/internal/platform.File).Sync bypasses the retry/write-behind funnel; route raw file I/O through RetryPolicy.run (the segmentSet/superblock helpers)`,
		`internal/chunkstore/readpath.go:68: [locked-io] (fixmod/internal/sec.Suite).Decrypt called while s.mu is held; move I/O and crypto off the critical section or declare a serialization point (*Locked / //tdblint:serial)`,
		`internal/chunkstore/readpath.go:76: [lock-order] chunkstore.rshard.mu acquired while chunkstore.rstore.mu is held creates a cycle in the module lock graph (chunkstore.rstore.mu → chunkstore.rshard.mu → chunkstore.rstore.mu); take module mutexes in one global order`,
		`internal/chunkstore/readpath.go:92: [lock-order] chunkstore.rstore.mu acquired while chunkstore.rshard.mu is held (via reserve) creates a cycle in the module lock graph (chunkstore.rshard.mu → chunkstore.rstore.mu → chunkstore.rshard.mu); take module mutexes in one global order`,
		`internal/chunkstore/taxonomy.go:14: [err-taxonomy] sentinel comparison err == ErrGone; use errors.Is so wrapped chains still match`,
		`internal/chunkstore/taxonomy.go:24: [err-taxonomy] errors.New inside a function body mints an unclassifiable error; wrap a package sentinel with fmt.Errorf("...: %w", ErrX) instead`,
		`internal/chunkstore/taxonomy.go:29: [err-taxonomy] fmt.Errorf without %w mints an unclassifiable error; wrap a package sentinel or the underlying cause`,
		`internal/chunkstore/unlockpath.go:14: [unlock-path] return while t.mu is held and its Unlock is not deferred (locked at line 12)`,
		`internal/chunkstore/unlockpath.go:23: [unlock-path] t.mu.Lock() with no deferred or subsequent Unlock in leak`,
		`internal/objectstore/mvcc.go:38: [locked-io] call reaches platform/sec work while vt.mu is held (Read → readLocked → (fixmod/internal/platform.File).ReadAt); move it off the critical section or declare a serialization point (*Locked / //tdblint:serial)`,
		`internal/sec/hygiene.go:7: [secret-hygiene] "macKey" flows into fmt.Sprintf; secret material must never be formatted or logged`,
		`internal/sec/hygiene.go:19: [secret-hygiene] "ivSeed" flows into fmt.Sprintf; secret material must never be formatted or logged`,
		`internal/sec/keys.go:18: [plaintext-flow] key material derived at internal/sec/keys.go:17 reaches (fixmod/internal/platform.File).WriteAt without passing through sec.Suite.Encrypt; encrypt before handing bytes to the untrusted store`,
		`internal/workload/workload.go:6: [secret-hygiene] math/rand imported outside _test.go; use crypto/rand near secret material`,
	}
	findings := runOn(t, filepath.Join("testdata", "src", "fixmod"))
	var got []string
	for _, f := range findings {
		got = append(got, f.String())
	}
	if len(got) != len(want) {
		t.Errorf("got %d findings, want %d", len(got), len(want))
	}
	for i := 0; i < len(got) || i < len(want); i++ {
		switch {
		case i >= len(got):
			t.Errorf("missing finding: %s", want[i])
		case i >= len(want):
			t.Errorf("unexpected finding: %s", got[i])
		case got[i] != want[i]:
			t.Errorf("finding %d:\n got  %s\n want %s", i, got[i], want[i])
		}
	}
}

// TestFixturePerAnalyzer verifies -only style selection: each analyzer run
// alone reports exactly its own findings (plus the always-on ignore
// hygiene).
func TestFixturePerAnalyzer(t *testing.T) {
	counts := map[string]int{
		"locked-io":       6, // lockedio.go ×2, harden.go ×1 (counter advance under the store mutex in a round; the off-mutex stage and the checkpoint path are clean), readpath.go ×1 (decrypt under RLock), prefetch.go ×1 (decrypt under the pool mutex), the cross-package snapshot-path case in objectstore/mvcc.go
		"err-taxonomy":    5, // taxonomy.go ×3, ignore.go ×2 (bare directives suppress nothing)
		"secret-hygiene":  3,
		"clock-injection": 2,
		"unlock-path":     2,
		"raw-io-funnel":   6, // rawio.go ×3, lockedio.go ×3 (raw WriteAt under a mutex is doubly wrong)
		"plaintext-flow":  4, // flow.go ×3 (decrypt, plaintext param, field stash), keys.go ×1
		"lock-order":      4, // both edges of the wall/door cycle in lockorder.go, both edges of the rstore/rshard cycle in readpath.go
	}
	for name, want := range counts {
		findings := runOn(t, filepath.Join("testdata", "src", "fixmod"), name)
		got := 0
		for _, f := range findings {
			if f.Analyzer == name {
				got++
			} else if f.Analyzer != "bare-ignore" {
				t.Errorf("-only %s reported foreign analyzer %s: %s", name, f.Analyzer, f)
			}
		}
		if got != want {
			t.Errorf("-only %s: %d findings, want %d", name, got, want)
		}
	}
}

// TestReasonlessIgnoreRejected pins the suppression discipline: a
// reasonless directive is reported and does not silence the finding it
// covers, while a reasoned one both survives and silences.
func TestReasonlessIgnoreRejected(t *testing.T) {
	findings := runOn(t, filepath.Join("testdata", "src", "fixmod"), "err-taxonomy")
	var bare, suppressedLine, bareLine bool
	for _, f := range findings {
		if f.Analyzer == "bare-ignore" && strings.Contains(f.Message, "without a reason") {
			bare = true
		}
		if strings.HasSuffix(f.Pos.Filename, "ignore.go") {
			switch f.Pos.Line {
			case 9: // reasoned suppression covers this fmt.Errorf
				suppressedLine = true
			case 16: // reasonless suppression must not cover this one
				bareLine = true
			}
		}
	}
	if !bare {
		t.Error("reasonless //tdblint:ignore was not reported")
	}
	if suppressedLine {
		t.Error("reasoned //tdblint:ignore failed to suppress its finding")
	}
	if !bareLine {
		t.Error("reasonless //tdblint:ignore silenced the finding it covers")
	}
}

// TestLiveTreeClean is the gate test: the repository itself must be
// finding-free. A reintroduced violation anywhere in the module fails this
// test (and `make lint`, which `make check` runs).
func TestLiveTreeClean(t *testing.T) {
	findings := runOn(t, filepath.Join("..", ".."))
	for _, f := range findings {
		t.Errorf("live tree: %s", f)
	}
}

// TestJSONOutput covers -json: one JSON object per finding per line, and
// the classic rendering stays byte-identical without the flag.
func TestJSONOutput(t *testing.T) {
	findings := []Finding{
		{Pos: token.Position{Filename: "a/b.go", Line: 7}, Analyzer: "plaintext-flow", Message: `plaintext reaches the store`},
		{Pos: token.Position{Filename: "c.go", Line: 12}, Analyzer: "lock-order", Message: "cycle"},
	}
	var buf bytes.Buffer
	printFindings(&buf, findings, true)
	type line struct {
		File     string `json:"file"`
		Line     int    `json:"line"`
		Analyzer string `json:"analyzer"`
		Message  string `json:"message"`
	}
	var got []line
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var l line
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatalf("unmarshal %q: %v", sc.Text(), err)
		}
		got = append(got, l)
	}
	want := []line{
		{"a/b.go", 7, "plaintext-flow", "plaintext reaches the store"},
		{"c.go", 12, "lock-order", "cycle"},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d JSON lines, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("line %d: got %+v, want %+v", i, got[i], want[i])
		}
	}

	buf.Reset()
	printFindings(&buf, findings, false)
	plain := "a/b.go:7: [plaintext-flow] plaintext reaches the store\nc.go:12: [lock-order] cycle\n"
	if buf.String() != plain {
		t.Errorf("plain output:\n got  %q\n want %q", buf.String(), plain)
	}
}

func TestSelectAnalyzers(t *testing.T) {
	all, err := selectAnalyzers("", "")
	if err != nil || len(all) != len(analyzerNames) {
		t.Fatalf("default selection: %v, %v", all, err)
	}
	one, err := selectAnalyzers("locked-io", "")
	if err != nil || len(one) != 1 || !one["locked-io"] {
		t.Fatalf("-only locked-io: %v, %v", one, err)
	}
	skipped, err := selectAnalyzers("", "unlock-path")
	if err != nil || skipped["unlock-path"] || len(skipped) != len(analyzerNames)-1 {
		t.Fatalf("-skip unlock-path: %v, %v", skipped, err)
	}
	if _, err := selectAnalyzers("bogus", ""); err == nil {
		t.Fatal("-only bogus: expected error")
	}
	if _, err := selectAnalyzers("", "bogus"); err == nil {
		t.Fatal("-skip bogus: expected error")
	}
}

// TestCounterAdvanceOffStoreMutex is the harden pipeline's proof obligation
// on the live tree (DESIGN.md §7.2): in the chunk store, the one-way
// counter is incremented in exactly one function, the declared stage-2
// serialization point, and the only caller that reaches it with Store.mu
// held is hardenLocked — the checkpoint/Close harden. A commit round calls
// it under the stage-2 turn alone.
func TestCounterAdvanceOffStoreMutex(t *testing.T) {
	mod, err := loadModule(filepath.Join("..", ".."))
	if err != nil {
		t.Fatalf("loadModule: %v", err)
	}
	l := &linter{mod: mod, serial: make(map[*ast.FuncDecl]bool)}
	var pkg *Package
	for _, p := range mod.Pkgs {
		if strings.HasSuffix(p.Path, "internal/chunkstore") {
			pkg = p
		}
	}
	if pkg == nil {
		t.Fatal("chunkstore package not loaded")
	}
	increments := 0
	callers := map[string]string{} // caller of advanceCounter → locks held at the call
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fd, isFunc := decl.(*ast.FuncDecl)
			if !isFunc || fd.Body == nil {
				continue
			}
			regions := l.lockRegions(pkg, fd.Body)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, isCall := n.(*ast.CallExpr)
				if !isCall {
					return true
				}
				callee := calleeFunc(pkg, call)
				if callee == nil {
					return true
				}
				switch callee.FullName() {
				case "(tdb/internal/platform.OneWayCounter).Increment":
					increments++
					if fd.Name.Name != "advanceCounter" || !l.isSerialDecl(fd) {
						t.Errorf("%s increments the one-way counter; only the declared stage-2 serialization point advanceCounter may", fd.Name.Name)
					}
				case "(*tdb/internal/chunkstore.Store).advanceCounter":
					var held []string
					for _, r := range regions {
						if call.Pos() > r.start && call.Pos() < r.end {
							held = append(held, r.recv)
						}
					}
					callers[fd.Name.Name] = strings.Join(held, ",")
				}
				return true
			})
		}
	}
	want := map[string]string{
		"gcHarden":     "gc.advMu",   // a commit round: the stage-2 turn, never Store.mu
		"hardenLocked": "s.gc.advMu", // checkpoint and Close, which already hold Store.mu
		"recover":      "",           // Open, single-threaded
	}
	if increments != 1 {
		t.Errorf("%d Increment call sites in the chunk store, want 1", increments)
	}
	if !reflect.DeepEqual(callers, want) {
		t.Errorf("advanceCounter callers and the locks they hold: %v, want %v", callers, want)
	}
}
