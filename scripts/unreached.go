//go:build ignore

// unreached.go is the symbol-level pass of scripts/reachability.sh: it
// lists every function declared in a non-test file under internal/ that is
// in no binary and not in the allowlist.
//
//	go tool nm <binary>... | go run scripts/unreached.go [-allow file] [-list]
//
// Standard input is `go tool nm` output of binaries linked with inlining
// off (-gcflags=all=-l), so that a function a binary calls is a text symbol
// of it. A symbol and a declaration meet under one spelling, pkg.Func or
// pkg.Type.Method: closure (.funcN), wrapper (.gowrapN, .deferwrapN),
// method-value (-fm) and instantiation ([shape]) suffixes are stripped and
// T.M and (*T).M are one function.
//
// The allowlist holds one such spelling per line followed by its reason. An
// unreached function outside it fails the pass, and so does a line whose
// function is reached by a binary or no longer exists. With -list the
// unreached functions are printed with their line counts, allowlisted or
// not, and the exit status is 0.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

const modPrefix = "idxflow/"

// suffixes are what the compiler appends to the name of the function a
// closure, wrapper or method value was written in.
var suffixes = regexp.MustCompile(`(\.func\d+|\.gowrap\d+|\.deferwrap\d+|\.\d+|-fm)+$`)

// canonical turns a linker symbol into the spelling declKey gives the
// declaration it was compiled from.
func canonical(sym string) string {
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0 && r != '(' && r != ')' && r != '*':
			b.WriteRune(r)
		}
	}
	return suffixes.ReplaceAllString(b.String(), "")
}

type decl struct {
	key   string
	file  string
	line  int
	lines int
}

// declKey spells a declaration pkg.Func or pkg.Type.Method.
func declKey(pkg string, fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return pkg + "." + fn.Name.Name
	}
	t := fn.Recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
			continue
		case *ast.IndexExpr:
			t = x.X
			continue
		case *ast.IndexListExpr:
			t = x.X
			continue
		}
		break
	}
	return pkg + "." + t.(*ast.Ident).Name + "." + fn.Name.Name
}

func declared(root string) ([]decl, error) {
	var out []decl
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := modPrefix + filepath.ToSlash(filepath.Dir(path))
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Body == nil || fn.Name.Name == "init" {
				continue
			}
			from, to := fset.Position(fn.Pos()), fset.Position(fn.End())
			out = append(out, decl{declKey(pkg, fn), filepath.ToSlash(path), from.Line, to.Line - from.Line + 1})
		}
		return nil
	})
	return out, err
}

func main() {
	allowPath := flag.String("allow", "", "allowlist: one pkg.Func or pkg.Type.Method per line, then its reason")
	list := flag.Bool("list", false, "print every unreached function and exit 0")
	flag.Parse()

	reached := map[string]bool{}
	in := bufio.NewScanner(os.Stdin)
	in.Buffer(nil, 1<<20)
	for in.Scan() {
		// "  4a2b00 T idxflow/internal/sched.(*Skyline).Schedule"
		f := strings.Fields(in.Text())
		if len(f) < 3 || (f[1] != "T" && f[1] != "t") {
			continue
		}
		if sym := strings.Join(f[2:], " "); strings.HasPrefix(sym, modPrefix+"internal/") {
			reached[canonical(sym)] = true
		}
	}
	if err := in.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "unreached:", err)
		os.Exit(2)
	}
	if len(reached) == 0 {
		fmt.Fprintln(os.Stderr, "unreached: no idxflow/internal text symbol on standard input")
		os.Exit(2)
	}

	allowed := map[string]bool{}
	var allowOrder []string
	if *allowPath != "" {
		data, err := os.ReadFile(*allowPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "unreached:", err)
			os.Exit(2)
		}
		for _, line := range strings.Split(string(data), "\n") {
			f := strings.Fields(line)
			if len(f) == 0 || strings.HasPrefix(f[0], "#") {
				continue
			}
			allowed[f[0]] = true
			allowOrder = append(allowOrder, f[0])
		}
	}

	decls, err := declared("internal")
	if err != nil {
		fmt.Fprintln(os.Stderr, "unreached:", err)
		os.Exit(2)
	}
	sort.Slice(decls, func(i, j int) bool {
		if decls[i].file != decls[j].file {
			return decls[i].file < decls[j].file
		}
		return decls[i].line < decls[j].line
	})

	exists := map[string]bool{}
	var unreached, offending []decl
	lines := 0
	for _, d := range decls {
		exists[d.key] = true
		if reached[d.key] {
			continue
		}
		unreached = append(unreached, d)
		lines += d.lines
		if !allowed[d.key] {
			offending = append(offending, d)
		}
	}
	var stale []string
	for _, k := range allowOrder {
		switch {
		case !exists[k]:
			stale = append(stale, k+" (no such function)")
		case reached[k]:
			stale = append(stale, k+" (a binary reaches it)")
		}
	}

	if *list {
		for _, d := range unreached {
			mark := ""
			if allowed[d.key] {
				mark = "  allowlisted"
			}
			fmt.Printf("%s:%d  %s  %d lines%s\n", d.file, d.line, strings.TrimPrefix(d.key, modPrefix+"internal/"), d.lines, mark)
		}
		fmt.Printf("%d of %d functions declared in non-test files under internal/ are in no binary (%d lines); %d allowlisted.\n",
			len(unreached), len(decls), lines, len(unreached)-len(offending))
		return
	}
	for _, d := range offending {
		fmt.Printf("%s:%d: %s is in no binary and not in the allowlist\n", d.file, d.line, d.key)
	}
	for _, s := range stale {
		fmt.Printf("%s: stale allowlist entry %s\n", *allowPath, s)
	}
	if len(offending)+len(stale) > 0 {
		os.Exit(1)
	}
	fmt.Printf("reachability: %d functions under internal/, %d in no binary, all %d allowlisted.\n", len(decls), len(unreached), len(allowed))
}
