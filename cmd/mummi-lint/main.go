// Command mummi-lint runs the project's static-analysis suite (package
// internal/lint; docs/LINT.md): determinism, errdiscipline and doccomment.
// It is wired into `make lint` and scripts/ci.sh and exits non-zero on
// findings, so a violated invariant fails the build rather than waiting for
// a test to happen to trip over it.
//
// Usage:
//
//	mummi-lint [flags] [patterns]
//
//	patterns        ./...-style package patterns relative to the module
//	                root (default ./...)
//	-list           print the analyzers and exit
//
// Findings are suppressed with a `//lint:allow <analyzer> -- reason`
// comment on the offending line or the line above it; an allow comment that
// suppresses nothing, or names no analyzer of the suite, is itself a
// finding. The errdiscipline allowlist is .errallow at the module root, if
// present.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"

	"mummi/internal/lint"
)

func main() {
	list := flag.Bool("list", false, "list analyzers and exit")
	flag.Parse()

	if *list {
		for _, a := range lint.All() {
			fmt.Printf("%-20s %s\n", a.Name, a.Doc)
		}
		return
	}
	findings, err := run(flag.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	for _, d := range findings {
		fmt.Println(d.String())
	}
	if len(findings) > 0 {
		fmt.Printf("mummi-lint: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}

func run(patterns []string) ([]lint.Diagnostic, error) {
	cwd, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	mod, err := lint.LoadModule(cwd)
	if err != nil {
		return nil, err
	}
	errAllow, err := lint.LoadErrAllow(filepath.Join(mod.Root, ".errallow"))
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("mummi-lint: reading allowlist: %w", err)
	}
	findings := mod.Run(lint.RunOptions{Analyzers: lint.All(), ErrAllow: errAllow, Patterns: patterns})

	// Report paths relative to the working directory, like go vet.
	for i := range findings {
		if rel, err := filepath.Rel(cwd, findings[i].File); err == nil && !strings.HasPrefix(rel, "..") {
			findings[i].File = rel
		}
	}
	return findings, nil
}
