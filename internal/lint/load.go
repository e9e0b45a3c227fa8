package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	// Path is the import path ("repro/internal/dn"); external test
	// packages carry the "_test" suffix Go gives them.
	Path string
	// Dir is the absolute directory the sources live in.
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	// Src maps filename to source bytes (directive classification needs
	// to see whether code precedes a comment on its line).
	Src   map[string][]byte
	Types *types.Package
	Info  *types.Info
}

// Loader parses and type-checks the module's packages without
// golang.org/x/tools: module packages are checked from source (imports
// resolved recursively), standard-library packages are imported from the
// toolchain's export data, located once via `go list -export -deps std`.
type Loader struct {
	// Dir is the module root (the directory holding go.mod).
	Dir string
	// Module is the module path from go.mod.
	Module string

	fset      *token.FileSet
	goVersion string

	std        types.ImporterFrom
	stdExports map[string]string

	// importCache memoizes module packages as seen by importers: compiled
	// WITHOUT test files, exactly like the go tool builds dependencies.
	importCache map[string]*Package

	// testVariants memoizes module packages re-typechecked against a
	// test-augmented package under test, keyed by that package's import
	// path. An external test package may import helpers that themselves
	// import the package under test (lint_test → linttest → lint); Go
	// rebuilds such intermediaries against the augmented variant, and so
	// must we, or the two worlds disagree on the identity of its types.
	testVariants map[string]map[string]*Package

	// moduleDeps memoizes each module package's direct module-internal
	// imports (non-test files), for the dependsOn reachability check.
	moduleDeps map[string][]string
}

// NewLoader returns a loader rooted at the module directory dir.
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	module, goVersion, err := readModFile(filepath.Join(abs, "go.mod"))
	if err != nil {
		return nil, err
	}
	l := &Loader{
		Dir:          abs,
		Module:       module,
		fset:         token.NewFileSet(),
		goVersion:    goVersion,
		importCache:  make(map[string]*Package),
		testVariants: make(map[string]map[string]*Package),
		moduleDeps:   make(map[string][]string),
	}
	l.std = importer.ForCompiler(l.fset, "gc", l.lookupStd).(types.ImporterFrom)
	return l, nil
}

func readModFile(path string) (module, goVersion string, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return "", "", fmt.Errorf("lint: reading go.mod: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			module = strings.TrimSpace(rest)
		}
		if rest, ok := strings.CutPrefix(line, "go "); ok {
			goVersion = "go" + strings.TrimSpace(rest)
		}
	}
	if module == "" {
		return "", "", fmt.Errorf("lint: no module directive in %s", path)
	}
	return module, goVersion, nil
}

// lookupStd feeds the gc importer the export-data file of a toolchain
// package. The path→file table is built lazily with one `go list` run over
// the whole standard library, so a cold module build is the only slow run.
func (l *Loader) lookupStd(path string) (io.ReadCloser, error) {
	if l.stdExports == nil {
		out, err := exec.Command("go", "list", "-export", "-deps", "-json=ImportPath,Export", "std").Output()
		if err != nil {
			if ee, ok := err.(*exec.ExitError); ok {
				return nil, fmt.Errorf("lint: go list -export std: %v\n%s", err, ee.Stderr)
			}
			return nil, fmt.Errorf("lint: go list -export std: %w", err)
		}
		l.stdExports = make(map[string]string)
		dec := json.NewDecoder(bytes.NewReader(out))
		for {
			var p struct{ ImportPath, Export string }
			if err := dec.Decode(&p); err == io.EOF {
				break
			} else if err != nil {
				return nil, fmt.Errorf("lint: decoding go list output: %w", err)
			}
			if p.Export != "" {
				l.stdExports[p.ImportPath] = p.Export
			}
		}
	}
	file, ok := l.stdExports[path]
	if !ok {
		return nil, fmt.Errorf("lint: no export data for %q (module dependencies are not supported)", path)
	}
	return os.Open(file)
}

// Load resolves package patterns ("./...", "./internal/dn", "internal/...")
// and returns the matched packages type-checked for analysis: module
// packages include their in-package test files, and external test packages
// (package foo_test) are returned as packages of their own.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	dirs, err := l.expand(patterns)
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	for _, dir := range dirs {
		got, err := l.loadForAnalysis(dir)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, got...)
	}
	return pkgs, nil
}

// LoadDirAs loads one directory (typically an analysistest-style fixture
// under testdata, which pattern expansion deliberately skips) as a single
// package with the given import path. Test-file variants are not split out:
// every .go file in the directory joins the package.
func (l *Loader) LoadDirAs(dir, path string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	ents, err := os.ReadDir(abs)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			files = append(files, e.Name())
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", abs)
	}
	return l.check(abs, path, files, l.importerFn(nil))
}

// expand turns patterns into the sorted set of matching module directories.
func (l *Loader) expand(patterns []string) ([]string, error) {
	seen := make(map[string]bool)
	var dirs []string
	add := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		rec := false
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			rec = true
			pat = rest
			if pat == "." || pat == "" {
				pat = "."
			}
		}
		root := pat
		if !filepath.IsAbs(root) {
			root = filepath.Join(l.Dir, root)
		}
		if l.inNestedModule(root) {
			return nil, fmt.Errorf("lint: %s belongs to a nested module, not %s", root, l.Module)
		}
		if !rec {
			if hasGoFiles(root) {
				add(root)
				continue
			}
			return nil, fmt.Errorf("lint: no Go files in %s", root)
		}
		err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if p != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			// Like the go tool, stop at a nested module: its packages are
			// not this module's.
			if p != root && hasGoMod(p) {
				return filepath.SkipDir
			}
			if hasGoFiles(p) {
				add(p)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

// inNestedModule reports whether dir lies inside a module nested under
// the loader's: some directory from dir up to (not including) the module
// root holds its own go.mod.
func (l *Loader) inNestedModule(dir string) bool {
	for d := filepath.Clean(dir); d != l.Dir; d = filepath.Dir(d) {
		rel, err := filepath.Rel(l.Dir, d)
		if err != nil || strings.HasPrefix(rel, "..") {
			return false // outside the module; importPathFor reports it
		}
		if hasGoMod(d) {
			return true
		}
	}
	return false
}

func hasGoMod(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, "go.mod"))
	return err == nil
}

func hasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			return true
		}
	}
	return false
}

// importPathFor maps a module directory to its import path.
func (l *Loader) importPathFor(dir string) (string, error) {
	rel, err := filepath.Rel(l.Dir, dir)
	if err != nil {
		return "", err
	}
	if rel == "." {
		return l.Module, nil
	}
	if strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("lint: %s is outside module %s", dir, l.Dir)
	}
	return l.Module + "/" + filepath.ToSlash(rel), nil
}

// splitDir classifies a directory's buildable files with go/build (which
// owns file-name and build-constraint rules).
func splitDir(dir string) (base, inTest, xTest []string, err error) {
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		if _, ok := err.(*build.NoGoError); ok {
			return nil, nil, nil, nil
		}
		return nil, nil, nil, err
	}
	return bp.GoFiles, bp.TestGoFiles, bp.XTestGoFiles, nil
}

// loadForAnalysis loads dir's package including in-package test files,
// plus its external test package when one exists.
func (l *Loader) loadForAnalysis(dir string) ([]*Package, error) {
	path, err := l.importPathFor(dir)
	if err != nil {
		return nil, err
	}
	base, inTest, xTest, err := splitDir(dir)
	if err != nil {
		return nil, err
	}
	if len(base)+len(inTest)+len(xTest) == 0 {
		return nil, nil
	}
	var pkgs []*Package
	var underTest *Package
	if len(base)+len(inTest) > 0 {
		underTest, err = l.check(dir, path, append(append([]string{}, base...), inTest...), l.importerFn(nil))
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, underTest)
	}
	if len(xTest) > 0 {
		// The external test package sees the test-augmented package under
		// test (export_test.go helpers live in the in-test variant).
		xp, err := l.check(dir, path+"_test", xTest, l.importerFn(underTest))
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, xp)
	}
	return pkgs, nil
}

// loadImport type-checks the non-test variant of a module package for use
// as a dependency.
func (l *Loader) loadImport(path string) (*Package, error) {
	if p, ok := l.importCache[path]; ok {
		return p, nil
	}
	p, err := l.checkImport(path, l.importerFn(nil))
	if err != nil {
		return nil, err
	}
	l.importCache[path] = p
	return p, nil
}

// loadImportFor resolves a module dependency while checking an external
// test package. Only dependencies that transitively import the package
// under test are rebuilt in the under-test world (they must see its
// test-augmented variant — lint_test → linttest → lint); everything else
// resolves through the shared import cache. Rebuilding an unrelated
// dependency would create a second *types.Package for it, and any of its
// types appearing in the under-test package's API (checked against the
// shared instance) would stop unifying — "cannot use config.Hardware as
// config.Hardware" across the two worlds.
func (l *Loader) loadImportFor(path string, underTest *Package) (*Package, error) {
	if underTest == nil || !l.dependsOn(path, underTest.Path, make(map[string]bool)) {
		return l.loadImport(path)
	}
	cache := l.testVariants[underTest.Path]
	if cache == nil {
		cache = make(map[string]*Package)
		l.testVariants[underTest.Path] = cache
	}
	if p, ok := cache[path]; ok {
		return p, nil
	}
	p, err := l.checkImport(path, l.importerFn(underTest))
	if err != nil {
		return nil, err
	}
	cache[path] = p
	return p, nil
}

// directImports returns path's direct module-internal imports as declared
// by its non-test files (go/build owns file-name and constraint rules).
func (l *Loader) directImports(path string) []string {
	if deps, ok := l.moduleDeps[path]; ok {
		return deps
	}
	rel := strings.TrimPrefix(path, l.Module)
	dir := filepath.Join(l.Dir, filepath.FromSlash(strings.TrimPrefix(rel, "/")))
	var deps []string
	if bp, err := build.Default.ImportDir(dir, 0); err == nil {
		for _, imp := range bp.Imports {
			if imp == l.Module || strings.HasPrefix(imp, l.Module+"/") {
				deps = append(deps, imp)
			}
		}
	}
	l.moduleDeps[path] = deps
	return deps
}

// dependsOn reports whether module package path transitively imports
// target through non-test imports (or is target itself).
func (l *Loader) dependsOn(path, target string, seen map[string]bool) bool {
	if path == target {
		return true
	}
	if seen[path] {
		return false
	}
	seen[path] = true
	for _, dep := range l.directImports(path) {
		if l.dependsOn(dep, target, seen) {
			return true
		}
	}
	return false
}

// checkImport type-checks the non-test file set of a module package with
// the given importer.
func (l *Loader) checkImport(path string, imp types.Importer) (*Package, error) {
	rel := strings.TrimPrefix(path, l.Module)
	dir := filepath.Join(l.Dir, filepath.FromSlash(strings.TrimPrefix(rel, "/")))
	base, _, _, err := splitDir(dir)
	if err != nil {
		return nil, err
	}
	if len(base) == 0 {
		return nil, fmt.Errorf("lint: no non-test Go files in %s", dir)
	}
	return l.check(dir, path, base, imp)
}

// importerFn builds the types.Importer used while checking one package:
// module paths resolve through the loader, everything else through the
// toolchain export data. underTest, when non-nil, overrides its own import
// path — the external test package must see the test-augmented variant.
func (l *Loader) importerFn(underTest *Package) types.Importer {
	return importerFunc(func(path string) (*types.Package, error) {
		if underTest != nil && path == underTest.Path {
			return underTest.Types, nil
		}
		if path == l.Module || strings.HasPrefix(path, l.Module+"/") {
			p, err := l.loadImportFor(path, underTest)
			if err != nil {
				return nil, err
			}
			return p.Types, nil
		}
		return l.std.Import(path)
	})
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// check parses and type-checks one file set as a package.
func (l *Loader) check(dir, path string, filenames []string, imp types.Importer) (*Package, error) {
	pkg := &Package{
		Path: path,
		Dir:  dir,
		Fset: l.fset,
		Src:  make(map[string][]byte, len(filenames)),
	}
	sort.Strings(filenames)
	for _, name := range filenames {
		full := filepath.Join(dir, name)
		src, err := os.ReadFile(full)
		if err != nil {
			return nil, err
		}
		f, err := parser.ParseFile(l.fset, full, src, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		pkg.Src[full] = src
		pkg.Files = append(pkg.Files, f)
	}
	pkg.Info = &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	var typeErrs []error
	conf := types.Config{
		Importer:  imp,
		GoVersion: l.goVersion,
		Error:     func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, err := conf.Check(path, l.fset, pkg.Files, pkg.Info)
	if len(typeErrs) > 0 {
		msgs := make([]string, 0, len(typeErrs))
		for _, e := range typeErrs {
			msgs = append(msgs, e.Error())
		}
		return nil, fmt.Errorf("lint: type-checking %s:\n\t%s", path, strings.Join(msgs, "\n\t"))
	}
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	pkg.Types = tpkg
	return pkg, nil
}
