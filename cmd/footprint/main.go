// Command footprint regenerates the paper's Figure 8 — the per-module code
// footprint table — for this Go implementation.
//
// The paper reports .text segment sizes of C++ binaries; cross-language
// byte counts are not comparable, so this tool reports what IS comparable:
// the size of each TDB module (source lines and bytes) and the total, plus
// the "minimal configuration" split the paper calls out (chunk store +
// support utilities only, §6). Pass -bin to additionally compile
// representative binaries and report their sizes.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// module maps Figure 8's rows onto this repository's packages.
var modules = []struct {
	name string
	dirs []string
}{
	{"collection store", []string{"internal/collection"}},
	{"object store", []string{"internal/objectstore"}},
	{"backup store", []string{"internal/backupstore"}},
	{"chunk store", []string{"internal/chunkstore"}},
	{"support utilities", []string{"internal/platform", "internal/sec", "internal/core"}},
}

func main() {
	root := flag.String("root", ".", "repository root")
	withBin := flag.Bool("bin", false, "also build binaries and report their sizes")
	flag.Parse()

	fmt.Println("== Figure 8: code footprint by module ==")
	fmt.Printf("%-22s %10s %12s\n", "module", "Go lines", "source bytes")
	var totalLines, totalBytes int64
	var minimalLines int64
	for _, m := range modules {
		var lines, bytes int64
		for _, d := range m.dirs {
			l, b, err := countDir(filepath.Join(*root, d))
			if err != nil {
				fmt.Fprintln(os.Stderr, "footprint:", err)
				os.Exit(1)
			}
			lines += l
			bytes += b
		}
		fmt.Printf("%-22s %10d %12d\n", m.name, lines, bytes)
		totalLines += lines
		totalBytes += bytes
		if m.name == "chunk store" || m.name == "support utilities" {
			minimalLines += lines
		}
	}
	fmt.Printf("%-22s %10d %12d\n", "TDB - all modules", totalLines, totalBytes)
	fmt.Printf("%-22s %10d %12s   (chunk store + support, cf. the paper's 142 KB minimal config)\n",
		"minimal configuration", minimalLines, "-")

	if *withBin {
		fmt.Println()
		fmt.Println("compiled binary sizes (stripped):")
		for _, target := range []string{"./cmd/tdbctl", "./cmd/tdbbench"} {
			out := filepath.Join(os.TempDir(), "tdb-footprint-"+filepath.Base(target))
			cmd := exec.Command("go", "build", "-ldflags=-s -w", "-o", out, target)
			cmd.Dir = *root
			if msg, err := cmd.CombinedOutput(); err != nil {
				fmt.Fprintf(os.Stderr, "footprint: building %s: %v\n%s", target, err, msg)
				os.Exit(1)
			}
			st, err := os.Stat(out)
			if err != nil {
				fmt.Fprintln(os.Stderr, "footprint:", err)
				os.Exit(1)
			}
			fmt.Printf("  %-16s %8d KB\n", filepath.Base(target), st.Size()/1024)
			os.Remove(out)
		}
	}
}

// countDir counts non-test Go source lines and bytes in a directory.
func countDir(dir string) (lines, bytes int64, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, 0, err
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return 0, 0, err
		}
		bytes += int64(len(data))
		lines += int64(strings.Count(string(data), "\n"))
	}
	return lines, bytes, nil
}
