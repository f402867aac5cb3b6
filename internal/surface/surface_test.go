// Package surface holds the module's exported-surface test: every
// exported identifier under internal/ is a promise to another package,
// so one that no other package's non-test code names is unexported, and
// one that no non-test code names at all is deleted, unless it is a test
// oracle that another package's tests share. An unexported identifier
// that no non-test code names is deleted too, and so is an exported
// field that code reads and nothing sets.
package surface

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// oracles are exported identifiers that another package's tests name
// and no other package's non-test code does: the references those tests
// compare against and the fixtures they share. Each names one test that
// uses it; the surface test checks that the test exists, that its
// package's tests name the identifier, and that the entry is still
// needed.
var oracles = map[string]struct{ test, why string }{
	"asr.PrecisionFP64":       {"sirius.TestTranscriptsByEngine", "the parity test asks for each precision by name"},
	"asr.PrecisionInt8":       {"sirius.TestTranscriptsByEngine", "the parity test asks for each precision by name"},
	"gmm.Model.LogLikelihood": {"asr.TestLoadOrTrainCaches", "the log-add reference Bank.Score is held to; a reloaded bank must score as the trained one"},
	"kb.SynthDoc":             {"shard.TestShardedParitySynthSweep", "builds the whole index and the shards from one pass over the synthetic corpus"},
	"mat.DenseI8.At":          {"dnn.TestQuantizeWeightsErrorBound", "the dequantized weight each layer's error bound is checked against"},
	"mat.MulVec":              {"dnn.TestTrainMatchesReference", "the per-sample dot of the sample-at-a-time trainer the batched one is held to"},
	"search.Index.Doc":        {"kb.TestCorpusShardsPartitionExactly", "reads back the documents a corpus shard indexed"},
	"telemetry.Histogram.Sum": {"asr.TestStreamInt8ScoringTimeUnderInt8Kernel", "checks the scoring time filed under each kernel"},
}

// stdInterfaces declares the standard-library interfaces whose methods
// count as used when a type implements them, beside every interface the
// module declares: the runtime and the standard library call these
// methods without the module's source naming them.
const stdInterfaces = `package std

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"sort"
)

type (
	errorer        = error
	stringer       = fmt.Stringer
	marshaler      = json.Marshaler
	handler        = http.Handler
	responseWriter = http.ResponseWriter
	flusher        = http.Flusher
	writer         = io.Writer
	sorter         = sort.Interface
	value          = flag.Value

	// http.ResponseController reaches a wrapped writer's connection
	// controls through this.
	unwrapper interface{ Unwrap() http.ResponseWriter }
)
`

// pkg is one directory of the module: its non-test files, its in-package
// test files and its external (package x_test) test files.
type pkg struct {
	path                 string
	files, tests, xtests []*ast.File
	types                *types.Package
}

// module is the parsed and type-checked module.
type module struct {
	path    string // module path from go.mod
	fset    *token.FileSet
	pkgs    map[string]*pkg // by import path
	std     types.Importer
	stdFile *ast.File                  // stdInterfaces, parsed
	uses    map[string]map[string]bool // key -> packages whose non-test code names it
	tuses   map[string]map[string]bool // key -> packages whose tests name it
	tests   map[string]bool            // "rel.TestName" for every test function
	reads   map[*types.Var]bool        // struct fields non-test code reads
	writes  map[*types.Var]bool        // struct fields non-test code sets
}

func TestExportedSurface(t *testing.T) {
	m := loadChecked(t)
	m.scanTests()
	for _, msg := range m.findings() {
		t.Error(msg)
	}
}

// TestExportedFieldsAreSet fails on a settable value that nothing sets:
// an exported field of an exported struct type under internal/ that
// non-test code reads and no non-test code writes (bench/ included) is
// always the value it starts with, a constant spelled as a knob. A field
// with a json tag is set by decoding and is exempt.
func TestExportedFieldsAreSet(t *testing.T) {
	m := loadChecked(t)
	for _, d := range m.declared() {
		tn, ok := d.obj.(*types.TypeName)
		if !ok || !tn.Exported() || tn.IsAlias() || !m.internal(tn.Pkg().Path()) {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if _, tagged := reflect.StructTag(st.Tag(i)).Lookup("json"); !f.Exported() || f.Embedded() || tagged {
				continue
			}
			if m.reads[f] && !m.writes[f] {
				pos := m.fset.Position(f.Pos())
				t.Errorf("%s/%s:%d: non-test code reads %s.%s and none sets it: delete the field and use the value it always has",
					filepath.Base(filepath.Dir(pos.Filename)), filepath.Base(pos.Filename), pos.Line, m.rel(d.key), f.Name())
			}
		}
	}
}

// loadChecked loads the module this test sits in and type-checks every
// package's non-test files.
func loadChecked(t *testing.T) *module {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	m, err := load(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range m.sorted() {
		if err := m.check(p); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

// load parses every package of the module rooted at root, skipping the
// directories the go command skips and files the default build context
// excludes.
func load(root string) (*module, error) {
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	var modPath string
	for _, line := range strings.Split(string(mod), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			modPath = f[1]
		}
	}
	m := &module{
		path:   modPath,
		fset:   token.NewFileSet(),
		pkgs:   map[string]*pkg{},
		uses:   map[string]map[string]bool{},
		tuses:  map[string]map[string]bool{},
		tests:  map[string]bool{},
		reads:  map[*types.Var]bool{},
		writes: map[*types.Var]bool{},
	}
	std, err := parser.ParseFile(m.fset, "std.go", stdInterfaces, 0)
	if err != nil {
		return nil, err
	}
	imports := map[string]bool{}
	addImports := func(f *ast.File) {
		for _, spec := range f.Imports {
			if path, _ := strconv.Unquote(spec.Path.Value); !m.inModule(path) {
				imports[path] = true
			}
		}
	}
	addImports(std)
	m.stdFile = std
	err = filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); dir != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return err
		}
		p := &pkg{path: filepath.ToSlash(filepath.Join(modPath, rel))}
		entries, err := os.ReadDir(dir)
		if err != nil {
			return err
		}
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".go") {
				continue
			}
			if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
				if err != nil {
					return err
				}
				continue
			}
			f, err := parser.ParseFile(m.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			addImports(f)
			switch {
			case !strings.HasSuffix(name, "_test.go"):
				p.files = append(p.files, f)
			case strings.HasSuffix(f.Name.Name, "_test"):
				p.xtests = append(p.xtests, f)
			default:
				p.tests = append(p.tests, f)
			}
		}
		if len(p.files)+len(p.tests)+len(p.xtests) > 0 {
			m.pkgs[p.path] = p
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	m.std, err = stdImporter(root, m.fset, imports)
	return m, err
}

// stdImporter reads the standard library's compiled export data, located
// by one `go list -export` over every path the module imports: checking
// the standard library from source would cost seconds, and several times
// that under -race.
func stdImporter(root string, fset *token.FileSet, imports map[string]bool) (types.Importer, error) {
	args := []string{"list", "-export", "-deps", "-f", "{{.ImportPath}}\t{{.Export}}"}
	for path := range imports {
		args = append(args, path)
	}
	cmd := exec.Command("go", args...)
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list -export: %w", err)
	}
	export := map[string]string{}
	for _, line := range strings.Split(string(out), "\n") {
		if path, file, ok := strings.Cut(line, "\t"); ok && file != "" {
			export[path] = file
		}
	}
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := export[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(file)
	}), nil
}

func (m *module) sorted() []*pkg {
	var ps []*pkg
	for _, p := range m.pkgs {
		ps = append(ps, p)
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].path < ps[j].path })
	return ps
}

// Import type-checks a module package's non-test files on first use and
// hands every other path to the standard-library importer.
func (m *module) Import(path string) (*types.Package, error) {
	p, ok := m.pkgs[path]
	if !ok {
		return m.std.Import(path)
	}
	if err := m.check(p); err != nil {
		return nil, err
	}
	return p.types, nil
}

// check type-checks p's non-test files once and records which packages
// each of its identifiers names.
func (m *module) check(p *pkg) error {
	if p.types != nil || len(p.files) == 0 {
		return nil
	}
	info := &types.Info{
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Types:      map[ast.Expr]types.TypeAndValue{},
	}
	conf := types.Config{Importer: m}
	tp, err := conf.Check(p.path, m.fset, p.files, info)
	if err != nil {
		return err
	}
	p.types = tp
	m.recordFields(p.files, info)
	recv := receiverIdents(p.files)
	for id, obj := range info.Uses {
		if recv[id] {
			continue
		}
		if k := m.key(obj); k != "" {
			if m.uses[k] == nil {
				m.uses[k] = map[string]bool{}
			}
			m.uses[k][p.path] = true
		}
	}
	return nil
}

// recordFields notes the struct fields files read and write. A write is
// a composite literal that sets the field, keyed or by position, an
// assignment, an increment or decrement, or taking its address; every
// other selection of the field is a read.
func (m *module) recordFields(files []*ast.File, info *types.Info) {
	field := func(e ast.Expr) (*ast.SelectorExpr, *types.Var) {
		sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
		if !ok {
			return nil, nil
		}
		if s := info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
			return sel, s.Obj().(*types.Var).Origin()
		}
		return nil, nil
	}
	stored := map[*ast.SelectorExpr]bool{} // plain assignment targets: written, not read
	for _, file := range files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if sel, f := field(lhs); f != nil {
						m.writes[f] = true
						stored[sel] = n.Tok == token.ASSIGN
					}
				}
			case *ast.IncDecStmt:
				if _, f := field(n.X); f != nil {
					m.writes[f] = true
				}
			case *ast.UnaryExpr:
				if _, f := field(n.X); f != nil && n.Op == token.AND {
					m.writes[f] = true
				}
			case *ast.CompositeLit:
				t := info.Types[n].Type
				if p, ok := t.(*types.Pointer); ok {
					t = p.Elem()
				}
				st, ok := t.Underlying().(*types.Struct)
				if !ok {
					break
				}
				for i, elt := range n.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						if f, ok := info.Uses[kv.Key.(*ast.Ident)].(*types.Var); ok {
							m.writes[f.Origin()] = true
						}
					} else {
						m.writes[st.Field(i).Origin()] = true
					}
				}
			case *ast.SelectorExpr:
				if _, f := field(n); f != nil && !stored[n] {
					m.reads[f] = true
				}
			}
			return true
		})
	}
}

// scanTests type-checks every package's tests, in-package and external,
// and records the identifiers they name and the test functions they
// declare. The compiler has already checked the tests, so a type error
// here (an external test seeing the package's test-only declarations
// through one import and not through another) only loses that use.
func (m *module) scanTests() {
	for _, p := range m.sorted() {
		var variant *types.Package
		if len(p.tests) > 0 {
			files := append(append([]*ast.File(nil), p.files...), p.tests...)
			variant = m.checkTests(p, p.path, files, nil)
		}
		if len(p.xtests) > 0 {
			m.checkTests(p, p.path+"_test", p.xtests, variant)
		}
	}
}

// checkTests type-checks one test package of p; an external test
// imports variant, p's build with its in-package tests, in place of p.
func (m *module) checkTests(p *pkg, path string, files []*ast.File, variant *types.Package) *types.Package {
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
	conf := types.Config{
		Importer: importerFunc(func(path string) (*types.Package, error) {
			if variant != nil && path == p.path {
				return variant, nil
			}
			return m.Import(path)
		}),
		Error: func(error) {},
	}
	tp, _ := conf.Check(path, m.fset, files, info)
	isTest := func(pos token.Pos) bool { return strings.HasSuffix(m.fset.File(pos).Name(), "_test.go") }
	for _, f := range files {
		if !isTest(f.Pos()) {
			continue
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil {
				m.tests[m.rel(p.path)+"."+fd.Name.Name] = true
			}
		}
	}
	for id, obj := range info.Uses {
		k := m.key(obj)
		if k == "" || !isTest(id.Pos()) {
			continue
		}
		if m.tuses[k] == nil {
			m.tuses[k] = map[string]bool{}
		}
		m.tuses[k][m.rel(p.path)] = true
		// bench/ may not be edited, so whatever it names, its tests
		// included, is part of the surface.
		if p.path == m.path+"/bench" {
			if m.uses[k] == nil {
				m.uses[k] = map[string]bool{}
			}
			m.uses[k][p.path] = true
		}
	}
	return tp
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// receiverIdents returns the identifiers naming a method's receiver
// type: a type is not used by declaring methods on it.
func receiverIdents(files []*ast.File) map[*ast.Ident]bool {
	ids := map[*ast.Ident]bool{}
	for _, f := range files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil {
				ast.Inspect(fd.Recv, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						ids[id] = true
					}
					return true
				})
			}
		}
	}
	return ids
}

// key names a package-level object or a method of a named type by import
// path, receiver and name; every other object has no key.
func (m *module) key(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil || !m.inModule(obj.Pkg().Path()) {
		return ""
	}
	path := obj.Pkg().Path()
	if f, ok := obj.(*types.Func); ok {
		if recv := f.Origin().Type().(*types.Signature).Recv(); recv != nil {
			named := namedOf(recv.Type())
			if named == nil {
				return ""
			}
			return path + "." + named.Obj().Name() + "." + f.Name()
		}
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return path + "." + obj.Name()
}

func namedOf(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

func (m *module) inModule(path string) bool {
	return path == m.path || strings.HasPrefix(path, m.path+"/")
}

func (m *module) internal(path string) bool {
	return strings.HasPrefix(path, m.path+"/internal/")
}

// rel shortens an import path or key to its part below internal/ (or
// below the module root outside it).
func (m *module) rel(s string) string {
	if r, ok := strings.CutPrefix(s, m.path+"/internal/"); ok {
		return r
	}
	return strings.TrimPrefix(strings.TrimPrefix(s, m.path), "/")
}

// decl is one declared identifier and its key.
type decl struct {
	key string
	obj types.Object
}

// declared lists the package-level identifiers and the methods of named
// types of every package but bench/, which may not be edited.
func (m *module) declared() []decl {
	var ds []decl
	for _, p := range m.sorted() {
		if p.types == nil || p.path == m.path+"/bench" {
			continue
		}
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if name != "main" && name != "init" {
				ds = append(ds, decl{m.key(obj), obj})
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				f := named.Method(i)
				ds = append(ds, decl{m.key(f), f})
			}
		}
	}
	return ds
}

// interfaces lists every method-set interface the module declares and
// those stdInterfaces declares.
func (m *module) interfaces() ([]*types.Interface, error) {
	var ifaces []*types.Interface
	add := func(obj types.Object) {
		if tn, ok := obj.(*types.TypeName); ok {
			if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.IsMethodSet() && it.NumMethods() > 0 {
				if n, ok := tn.Type().(*types.Named); !ok || n.TypeParams().Len() == 0 {
					ifaces = append(ifaces, it)
				}
			}
		}
	}
	for _, p := range m.sorted() {
		if p.types != nil {
			for _, name := range p.types.Scope().Names() {
				add(p.types.Scope().Lookup(name))
			}
		}
	}
	std, err := (&types.Config{Importer: m.std}).Check("std", m.fset, []*ast.File{m.stdFile}, nil)
	if err != nil {
		return nil, err
	}
	for _, name := range std.Scope().Names() {
		add(std.Scope().Lookup(name))
	}
	return ifaces, nil
}

// implements reports whether method f makes its receiver type satisfy
// one of ifaces that declares a method of f's name.
func implements(f *types.Func, ifaces []*types.Interface) bool {
	named := namedOf(f.Type().(*types.Signature).Recv().Type())
	if named == nil || named.TypeParams().Len() > 0 {
		return false
	}
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == f.Name() &&
				(types.Implements(named, it) || types.Implements(types.NewPointer(named), it)) {
				return true
			}
		}
	}
	return false
}

// reachable returns the named module types that appear in the signature,
// type or exported fields of an identifier some other package names,
// following exported fields transitively.
func (m *module) reachable(ds []decl) map[*types.TypeName]bool {
	seen := map[*types.TypeName]bool{}
	var walk func(t types.Type)
	walk = func(t types.Type) {
		switch t := t.(type) {
		case *types.Named:
			obj := t.Origin().Obj()
			if obj.Pkg() == nil || !m.inModule(obj.Pkg().Path()) || seen[obj] {
				return
			}
			seen[obj] = true
			if args := t.TypeArgs(); args != nil {
				for i := 0; i < args.Len(); i++ {
					walk(args.At(i))
				}
			}
			walk(t.Origin().Underlying())
		case *types.Pointer:
			walk(t.Elem())
		case *types.Slice:
			walk(t.Elem())
		case *types.Array:
			walk(t.Elem())
		case *types.Map:
			walk(t.Key())
			walk(t.Elem())
		case *types.Chan:
			walk(t.Elem())
		case *types.Signature:
			for _, tup := range []*types.Tuple{t.Params(), t.Results()} {
				for i := 0; i < tup.Len(); i++ {
					walk(tup.At(i).Type())
				}
			}
		case *types.Struct:
			for i := 0; i < t.NumFields(); i++ {
				if f := t.Field(i); f.Exported() || f.Embedded() {
					walk(f.Type())
				}
			}
		case *types.Interface:
			for i := 0; i < t.NumMethods(); i++ {
				walk(t.Method(i).Type())
			}
		}
	}
	for _, d := range ds {
		if m.namedOutside(d) {
			walk(d.obj.Type())
		}
	}
	return seen
}

// namedOutside reports whether non-test code of a package other than
// d's own names d.
func (m *module) namedOutside(d decl) bool {
	for p := range m.uses[d.key] {
		if p != d.obj.Pkg().Path() {
			return true
		}
	}
	return false
}

// findings applies the surface rules and returns one message per
// identifier that breaks them.
func (m *module) findings() []string {
	ds := m.declared()
	ifaces, err := m.interfaces()
	if err != nil {
		return []string{err.Error()}
	}
	reach := m.reachable(ds)
	known := map[string]bool{}
	var out []string
	for _, d := range ds {
		if f, ok := d.obj.(*types.Func); ok && f.Type().(*types.Signature).Recv() != nil && implements(f, ifaces) {
			continue
		}
		rel := m.rel(d.key)
		pos := m.fset.Position(d.obj.Pos())
		where := fmt.Sprintf("%s:%d", filepath.Base(filepath.Dir(pos.Filename))+"/"+filepath.Base(pos.Filename), pos.Line)
		if !d.obj.Exported() {
			// Unexporting is no way around deleting.
			if len(m.uses[d.key]) == 0 {
				out = append(out, fmt.Sprintf("%s: no non-test code names %s: delete it or move it into a _test.go file", where, rel))
			}
			continue
		}
		if !m.internal(d.obj.Pkg().Path()) {
			continue
		}
		known[rel] = true
		tn, isType := d.obj.(*types.TypeName)
		_, oracle := oracles[rel]
		switch {
		case m.namedOutside(d) || isType && reach[tn]:
			if oracle {
				out = append(out, fmt.Sprintf("%s: %s is on the oracle list, but another package's non-test code reaches it: drop the entry", where, rel))
			}
		case oracle:
			// A test oracle another package's tests share.
		case len(m.uses[d.key]) == 0:
			out = append(out, fmt.Sprintf("%s: no non-test code names %s: delete it, move it into a _test.go file, or list it in oracles with the test that uses it%s", where, rel, m.testedFrom(d)))
		default:
			out = append(out, fmt.Sprintf("%s: only its own package names %s: unexport it%s", where, rel, m.testedFrom(d)))
		}
	}
	for rel, o := range oracles {
		testPkg := o.test[:strings.LastIndex(o.test, ".")]
		switch {
		case !known[rel]:
			out = append(out, fmt.Sprintf("oracle %s is not an exported identifier under internal/", rel))
		case !m.tests[o.test]:
			out = append(out, fmt.Sprintf("oracle %s: test %s does not exist", rel, o.test))
		case !m.tuses[m.path+"/internal/"+rel][testPkg]:
			out = append(out, fmt.Sprintf("oracle %s: the tests of %s do not name it", rel, testPkg))
		}
	}
	sort.Strings(out)
	return out
}

// testedFrom names the other packages whose tests name d, which must be
// rewritten when d is unexported or deleted.
func (m *module) testedFrom(d decl) string {
	var ps []string
	for p := range m.tuses[d.key] {
		if p != m.rel(d.obj.Pkg().Path()) {
			ps = append(ps, p)
		}
	}
	if len(ps) == 0 {
		return ""
	}
	sort.Strings(ps)
	return " (the tests of " + strings.Join(ps, ", ") + " name it)"
}
