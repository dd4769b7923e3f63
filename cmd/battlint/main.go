// Command battlint is the repository's invariant checker: a
// multichecker over the analyzers in internal/analysis/... that
// machine-check what the test suite can only spot-check — canonical
// encoders covering every exported field, contexts threaded once
// received, map iteration order kept out of deterministic outputs,
// filesystem calls routed through the injectable fault seam, the hot
// path free of allocating calls, and no dead stores.
//
// Standalone use (what scripts/lint.sh and CI run):
//
//	go run ./cmd/battlint ./...
//	go run ./cmd/battlint -list
//	go run ./cmd/battlint -run detrange,hotpath ./internal/core
//
// Findings print as "file:line:col: [analyzer] message"; the exit code
// is 1 when there are findings, 2 on usage or load errors, 0 when
// clean. A finding is acknowledged in place with
// //battlint:allow <analyzer> <reason> — see internal/analysis.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/canonfields"
	"repro/internal/analysis/ctxflow"
	"repro/internal/analysis/detrange"
	"repro/internal/analysis/fsseam"
	"repro/internal/analysis/hotpath"
	"repro/internal/analysis/unusedwrite"
)

// all is the battlint vocabulary: every analyzer, in the order -list
// prints them. Filter treats exactly these names as known in
// //battlint:allow comments.
var all = []*analysis.Analyzer{
	canonfields.Analyzer,
	ctxflow.Analyzer,
	detrange.Analyzer,
	fsseam.Analyzer,
	hotpath.Analyzer,
	unusedwrite.Analyzer,
}

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("battlint", flag.ContinueOnError)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: battlint [-list] [-run names] [package patterns]\n")
		fs.PrintDefaults()
	}
	list := fs.Bool("list", false, "print the analyzers and exit")
	runNames := fs.String("run", "", "comma-separated analyzer `names` to run (default: all)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range all {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	known := knownNames()
	selected := all
	if *runNames != "" {
		selected = nil
		for _, name := range strings.Split(*runNames, ",") {
			name = strings.TrimSpace(name)
			a := byName(name)
			if a == nil {
				fmt.Fprintf(os.Stderr, "battlint: unknown analyzer %q (see battlint -list)\n", name)
				return 2
			}
			selected = append(selected, a)
		}
	}
	ran := map[string]bool{}
	for _, a := range selected {
		ran[a.Name] = true
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := analysis.Load(".", patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "battlint:", err)
		return 2
	}
	exit := 0
	for _, pkg := range pkgs {
		findings, err := analysis.RunAnalyzers(pkg, selected)
		if err != nil {
			fmt.Fprintln(os.Stderr, "battlint:", err)
			return 2
		}
		for _, f := range analysis.Filter(findings, pkg, known, ran) {
			fmt.Println(f)
			exit = 1
		}
	}
	return exit
}

func knownNames() map[string]bool {
	known := map[string]bool{}
	for _, a := range all {
		known[a.Name] = true
	}
	return known
}

func byName(name string) *analysis.Analyzer {
	for _, a := range all {
		if a.Name == name {
			return a
		}
	}
	return nil
}
