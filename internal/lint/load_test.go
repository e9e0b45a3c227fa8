package lint_test

import (
	"testing"

	"repro/internal/lint"
)

// TestLoadExternalTestSharedDepIdentity is the regression test for a type
// identity bug in the loader: while checking an external test package, every
// module dependency used to be rebuilt in the under-test world, giving
// dependencies that do not import the package under test a second
// *types.Package. A value built by such a dependency (helper.Make() below)
// then failed to unify with the same type in the under-test package's API
// ("cannot use shared.S as shared.S"). Only dependencies that transitively
// import the package under test may be rebuilt.
func TestLoadExternalTestSharedDepIdentity(t *testing.T) {
	l, err := lint.NewLoader("testdata/identmod")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.Load("./pkg")
	if err != nil {
		t.Fatalf("external test package failed to type-check: %v", err)
	}
	var found bool
	for _, p := range pkgs {
		if p.Path == "identmod/pkg_test" {
			found = true
		}
	}
	if !found {
		t.Fatalf("external test package not loaded; got %d packages", len(pkgs))
	}
}

// TestLoadStopsAtNestedModule pins that pattern expansion treats a
// directory with its own go.mod the way the go tool does: "./..." does not
// walk into it, and naming it directly is an error rather than a load of
// another module's packages as this module's.
func TestLoadStopsAtNestedModule(t *testing.T) {
	l, err := lint.NewLoader("testdata/nestedmod")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.Load("./...")
	if err != nil {
		t.Fatalf("./... walked into the nested module: %v", err)
	}
	if len(pkgs) != 1 || pkgs[0].Path != "nestedmod/app" {
		var paths []string
		for _, p := range pkgs {
			paths = append(paths, p.Path)
		}
		t.Fatalf("loaded %v, want only nestedmod/app", paths)
	}
	for _, pat := range []string{"./tools/gen", "./tools/..."} {
		if _, err := l.Load(pat); err == nil {
			t.Errorf("Load(%q) loaded a nested module's package", pat)
		}
	}
}
