package repro

// One-path guards. MAD's results hold only if the functional code runs
// the one schedule the simulator prices: Algorithm 4's bootstrap plan,
// Figure 5(c)'s hoisted transform and §3.2's merged ModDown. These tests
// parse the module's Go source once (bench/ and test files included)
// and check each structural invariant that keeps a second path from
// coming back: who declares, who calls and who imports what. Every
// "must not occur" check also asserts something that must occur, so a
// loader that finds no files, or a matcher that matches nothing, fails.

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// srcFile is one parsed Go file of the module tree.
type srcFile struct {
	path string // slash-separated, relative to the module root
	test bool   // a _test.go file
	ast  *ast.File
}

// under reports whether f is one of roots or lies below one of them.
func (f srcFile) under(roots ...string) bool {
	for _, r := range roots {
		if f.path == r || strings.HasPrefix(f.path, r+"/") {
			return true
		}
	}
	return false
}

// module is the parsed tree: every .go file the go tool would see in
// the root module and in bench/, whatever its build constraints.
type module struct {
	fset  *token.FileSet
	files []srcFile
}

var loadModule = sync.OnceValues(func() (*module, error) {
	m := &module{fset: token.NewFileSet()}
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != "." && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") {
			return nil
		}
		f, err := parser.ParseFile(m.fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		m.files = append(m.files, srcFile{path: filepath.ToSlash(p), test: strings.HasSuffix(name, "_test.go"), ast: f})
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(m.files) == 0 {
		return nil, fmt.Errorf("no Go files below the module root")
	}
	return m, nil
})

func parsedModule(t *testing.T) *module {
	t.Helper()
	m, err := loadModule()
	if err != nil {
		t.Fatalf("parsing the module: %v", err)
	}
	return m
}

// scope selects files: keep reports whether a file is checked.
type scope func(srcFile) bool

func (m *module) pick(keep scope) []srcFile {
	var out []srcFile
	for _, f := range m.files {
		if keep(f) {
			out = append(out, f)
		}
	}
	return out
}

func allFiles(srcFile) bool { return true }

func isTest(f srcFile) bool { return f.test }

func nonTest(f srcFile) bool { return !f.test }

func nonTestUnder(roots ...string) scope {
	return func(f srcFile) bool { return !f.test && f.under(roots...) }
}

func anyUnder(roots ...string) scope {
	return func(f srcFile) bool { return f.under(roots...) }
}

// call is one call expression with the function that encloses it.
type call struct {
	file   srcFile
	fn     string // the enclosing top-level function or method; "" at package level
	qual   string // the callee's qualifier: "http" in http.Post, "ev" in ev.Rescale
	name   string // the callee's name
	expr   *ast.CallExpr
	where  string // file:line
	render string
}

// calls returns every call in files whose callee is named name ("" for
// every call).
func (m *module) calls(files []srcFile, name string) []call {
	var out []call
	for _, f := range files {
		for _, decl := range f.ast.Decls {
			fn := ""
			if fd, ok := decl.(*ast.FuncDecl); ok {
				fn = fd.Name.Name
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				ce, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				qual, callee := calleeName(ce.Fun)
				if name == "" || callee == name {
					out = append(out, call{
						file: f, fn: fn, qual: qual, name: callee, expr: ce,
						where:  m.pos(ce),
						render: types.ExprString(ce),
					})
				}
				return true
			})
		}
	}
	return out
}

func (m *module) pos(n ast.Node) string {
	p := m.fset.Position(n.Pos())
	return fmt.Sprintf("%s:%d", filepath.ToSlash(p.Filename), p.Line)
}

// calleeName splits a call's function expression into qualifier and name.
func calleeName(e ast.Expr) (qual, name string) {
	switch e := e.(type) {
	case *ast.Ident:
		return "", e.Name
	case *ast.SelectorExpr:
		return types.ExprString(e.X), e.Sel.Name
	case *ast.IndexExpr:
		return calleeName(e.X)
	case *ast.IndexListExpr:
		return calleeName(e.X)
	case *ast.ParenExpr:
		return calleeName(e.X)
	}
	return "", ""
}

// imports returns the files among files that import importPath.
func imports(files []srcFile, importPath string) []string {
	var out []string
	for _, f := range files {
		for _, is := range f.ast.Imports {
			if p, _ := strconv.Unquote(is.Path.Value); p == importPath {
				out = append(out, f.path)
			}
		}
	}
	return out
}

// funcDecls returns the position of every function or method named name
// in files, with its receiver type rendered ("" for a function).
func (m *module) funcDecls(files []srcFile, name string) (where, recv []string) {
	for _, f := range files {
		for _, decl := range f.ast.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Name.Name != name {
				continue
			}
			r := ""
			if fd.Recv != nil && len(fd.Recv.List) > 0 {
				r = types.ExprString(fd.Recv.List[0].Type)
			}
			where, recv = append(where, m.pos(fd)), append(recv, r)
		}
	}
	return where, recv
}

// assignedFields returns every assignment to a field named one of names.
func (m *module) assignedFields(files []srcFile, names ...string) []string {
	var out []string
	for _, f := range files {
		ast.Inspect(f.ast, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for _, lhs := range as.Lhs {
				if sel, ok := lhs.(*ast.SelectorExpr); ok && slices.Contains(names, sel.Sel.Name) {
					out = append(out, m.pos(as)+": "+types.ExprString(lhs))
				}
			}
			return true
		})
	}
	return out
}

// stringLits returns every string literal in files whose value matches re.
func (m *module) stringLits(files []srcFile, re *regexp.Regexp) []string {
	var out []string
	for _, f := range files {
		ast.Inspect(f.ast, func(n ast.Node) bool {
			if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if v, err := strconv.Unquote(lit.Value); err == nil && re.MatchString(v) {
					out = append(out, m.pos(lit)+": "+lit.Value)
				}
			}
			return true
		})
	}
	return out
}

func wheres(cs []call) []string {
	out := make([]string, len(cs))
	for i, c := range cs {
		out[i] = c.where + ": " + c.render
	}
	return out
}

func TestOnePathGuards(t *testing.T) {
	m := parsedModule(t)

	// Scalar or vector is decided once, by simd.UseVectorKernels.
	t.Run("OneKernelSwitch", func(t *testing.T) {
		where, recv := m.funcDecls(m.files, "UseVectorKernels")
		if len(where) != 1 || !strings.HasPrefix(where[0], "internal/simd/simd.go:") || recv[0] != "" {
			t.Errorf("func UseVectorKernels declared at %v (receivers %q), want exactly one function in internal/simd/simd.go", where, recv)
		}
	})
	t.Run("OneCPUProbe", func(t *testing.T) {
		if where, _ := m.funcDecls(m.files, "cpuid"); len(where) != 1 || !strings.HasPrefix(where[0], "internal/simd/") {
			t.Errorf("func cpuid declared at %v, want exactly one, in internal/simd", where)
		}
	})
	// No kernel object carries a flag a test writes: tests flip only the switch.
	t.Run("NoTestWritesKernelFlag", func(t *testing.T) {
		if got := m.assignedFields(m.pick(isTest), "ifma", "vector"); len(got) > 0 {
			t.Errorf("a test writes a kernel object's flag; use simd.UseVectorKernels:\n%s", strings.Join(got, "\n"))
		}
		// anchor: the constructors do write it
		if got := m.assignedFields(m.pick(nonTestUnder("internal/rns")), "vector"); len(got) == 0 {
			t.Error("no constructor in internal/rns assigns .vector: the matcher is blind")
		}
	})

	// Faults are checked at one boundary (Evaluator.Do), with no per-op
	// checked twin such as MulRelinE.
	t.Run("NoCheckedTwins", func(t *testing.T) {
		var twins, exported []string
		for _, f := range m.files {
			for _, decl := range f.ast.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Recv == nil || len(fd.Recv.List) == 0 || types.ExprString(fd.Recv.List[0].Type) != "*Evaluator" || !fd.Name.IsExported() {
					continue
				}
				exported = append(exported, fd.Name.Name)
				if strings.HasSuffix(fd.Name.Name, "E") {
					twins = append(twins, m.pos(fd)+": "+fd.Name.Name)
				}
			}
		}
		if len(twins) > 0 {
			t.Errorf("a checked twin of an Evaluator op is back; errors come from Evaluator.Do:\n%s", strings.Join(twins, "\n"))
		}
		if !slices.Contains(exported, "MulRelin") {
			t.Error("no exported *Evaluator method MulRelin found: the matcher is blind")
		}
	})

	// Every rotation and key switch is one keyed step: keyedStep is the
	// key product's only caller.
	t.Run("OneKeyProductCaller", func(t *testing.T) {
		cs := m.calls(m.pick(nonTest), "kskInnerProduct")
		if len(cs) != 1 || cs[0].fn != "keyedStep" || !cs[0].file.under("internal/ckks") {
			t.Errorf("non-test calls of kskInnerProduct, want exactly one, from keyedStep:\n%s", strings.Join(wheres(cs), "\n"))
		}
	})

	// Bootstrap runs the one polynomial executor once, on both halves.
	t.Run("OnePolynomialCall", func(t *testing.T) {
		cs := m.calls(m.pick(nonTestUnder("internal/bootstrap")), "EvalPolynomial")
		ok := len(cs) == 1
		if ok {
			args := cs[0].expr.Args
			ok = len(args) >= 2 && types.ExprString(args[len(args)-2]) == "ctReal" && types.ExprString(args[len(args)-1]) == "ctImag"
		}
		if !ok {
			t.Errorf("internal/bootstrap calls EvalPolynomial at:\n%s\nwant exactly one call, on ctReal, ctImag", strings.Join(wheres(cs), "\n"))
		}
	})

	// mathutil.BootPlan is Algorithm 4's one schedule: the bootstrapper
	// builds from it and simfhe prices it.
	t.Run("BootPlanBuiltByBoth", func(t *testing.T) {
		for _, pkg := range []string{"internal/bootstrap", "internal/simfhe"} {
			if cs := m.calls(m.pick(nonTestUnder(pkg)), "NewBootPlan"); len(cs) == 0 {
				t.Errorf("%s does not build the bootstrap plan (no NewBootPlan call)", pkg)
			}
		}
	})
	// The plan's split travels into every transform: no literal n1 = 0
	// asks the transform to compute its own.
	t.Run("PlanSplitReachesTransforms", func(t *testing.T) {
		cs := m.calls(m.pick(nonTestUnder("internal/bootstrap")), "NewLinearTransform")
		if len(cs) == 0 {
			t.Fatal("internal/bootstrap builds no linear transform: the matcher is blind")
		}
		for _, c := range cs {
			if n := len(c.expr.Args); n < 2 || types.ExprString(c.expr.Args[n-2]) == "0" {
				t.Errorf("%s: passes n1 = 0 instead of the plan's split: %s", c.where, c.render)
			}
		}
	})

	// One closer per product: no library code composes the unfused Mult
	// or transform-then-Rescale that Mul and EvalLinearTransformRescale
	// replace.
	t.Run("OneCloserPerProduct", func(t *testing.T) {
		composed := func(files []srcFile) []string {
			var out []string
			for _, c := range m.calls(files, "Rescale") {
				if len(c.expr.Args) == 1 {
					if inner, ok := c.expr.Args[0].(*ast.CallExpr); ok {
						if _, n := calleeName(inner.Fun); n == "MulRelin" || n == "EvalLinearTransform" {
							out = append(out, c.where+": "+c.render)
						}
					}
				}
			}
			return out
		}
		if got := composed(m.pick(nonTestUnder("internal/ckks", "internal/bootstrap"))); len(got) > 0 {
			t.Errorf("library code rescales an unfused product; call Mul or EvalLinearTransformRescale:\n%s", strings.Join(got, "\n"))
		}
		// anchor: the tests that hold the closers to these compositions spell them out
		if got := composed(m.pick(func(f srcFile) bool { return f.path == "internal/ckks/raised_test.go" })); len(got) == 0 {
			t.Error("internal/ckks/raised_test.go holds no unfused composition: the matcher is blind")
		}
	})

	// The hoisted transform's closer owns its one ModDown pair: a giant
	// step ModDowns one half only.
	t.Run("TransformModDownsOnce", func(t *testing.T) {
		lt := m.pick(func(f srcFile) bool { return f.path == "internal/ckks/lintrans.go" })
		if len(lt) != 1 {
			t.Fatalf("internal/ckks/lintrans.go not found")
		}
		if cs := m.calls(lt, "modDownPair"); len(cs) > 0 {
			t.Errorf("a giant step ModDowns both halves again:\n%s", strings.Join(wheres(cs), "\n"))
		}
		if cs := m.calls(m.pick(nonTestUnder("internal/ckks")), "modDownPair"); len(cs) == 0 {
			t.Error("nothing in internal/ckks calls modDownPair: the matcher is blind")
		}
	})

	// server.Client carries the wire codec: no second hand-written
	// client. wire_test.go's post is the byte reference of the reply codec.
	t.Run("OneFhedClient", func(t *testing.T) {
		var reference, stray []string
		var fromClient int
		for _, c := range m.calls(m.pick(anyUnder("internal/server", "cmd/fhed")), "") {
			if c.qual != "http" || (c.name != "NewRequest" && c.name != "Post") {
				continue
			}
			switch {
			case c.file.path == "internal/server/client.go":
				fromClient++
			case c.file.path == "internal/server/wire_test.go" && c.name == "Post" && types.ExprString(c.expr.Args[0]) == "base + path":
				reference = append(reference, c.where)
			default:
				stray = append(stray, c.where+": "+c.render)
			}
		}
		if len(stray) > 0 {
			t.Errorf("a request is built outside server.Client:\n%s", strings.Join(stray, "\n"))
		}
		if fromClient == 0 || len(reference) != 1 {
			t.Errorf("server.Client builds %d requests and wire_test.go posts %d reference requests, want ≥ 1 and 1: the matcher is blind", fromClient, len(reference))
		}
	})
	t.Run("OneErrorBodyDecoder", func(t *testing.T) {
		var stray []string
		var home int
		for _, f := range m.pick(anyUnder("internal/server", "cmd/fhed")) {
			ast.Inspect(f.ast, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && id.Name == "errorBody" {
					if f.path == "internal/server/client.go" || f.path == "internal/server/errors.go" {
						home++
					} else {
						stray = append(stray, m.pos(id))
					}
				}
				return true
			})
		}
		if len(stray) > 0 {
			t.Errorf("an error body is decoded outside server.Client:\n%s", strings.Join(stray, "\n"))
		}
		if home == 0 {
			t.Error("errorBody not found in client.go or errors.go: the matcher is blind")
		}
	})

	// Only fhed's chaos endpoint arms an injector outside tests.
	t.Run("InjectorOnlyInServer", func(t *testing.T) {
		var stray []string
		var server int
		for _, c := range m.calls(m.pick(nonTest), "New") {
			if c.qual != "faultinject" {
				continue
			}
			if c.file.under("internal/server") {
				server++
			} else {
				stray = append(stray, c.where)
			}
		}
		if len(stray) > 0 {
			t.Errorf("an injector is built outside internal/server's chaos endpoint:\n%s", strings.Join(stray, "\n"))
		}
		if server == 0 {
			t.Error("internal/server builds no injector: the matcher is blind")
		}
	})

	// calib prices every span through the ledger; it builds no model
	// context or parameter set of its own.
	t.Run("CalibPricesThroughLedger", func(t *testing.T) {
		calib := m.pick(nonTestUnder("internal/calib"))
		var stray []string
		for _, c := range m.calls(calib, "NewCtx") {
			if c.qual == "simfhe" {
				stray = append(stray, c.where+": "+c.render)
			}
		}
		for _, f := range calib {
			ast.Inspect(f.ast, func(n ast.Node) bool {
				if cl, ok := n.(*ast.CompositeLit); ok && cl.Type != nil && types.ExprString(cl.Type) == "simfhe.Params" {
					stray = append(stray, m.pos(cl)+": simfhe.Params{…}")
				}
				return true
			})
		}
		if len(stray) > 0 {
			t.Errorf("internal/calib builds its own model:\n%s", strings.Join(stray, "\n"))
		}
		if len(m.calls(calib, "ForParametersAt")) == 0 {
			t.Error("internal/calib does not price through ledger.ForParametersAt: the matcher is blind")
		}
	})

	// fhed's eval handler and the fhe subcommands name ops only through
	// ckks.LookupOp and Apply.
	t.Run("OpsNamedOnlyInCkks", func(t *testing.T) {
		site := regexp.MustCompile(`^ckks\.(Add|Sub|Mul|Square|Rescale|DropLevel|Rotate|Conjugate|InnerSum)$`)
		outside := func(f srcFile) bool { return !f.test && !f.under("internal/ckks", "bench") }
		if got := m.stringLits(m.pick(outside), site); len(got) > 0 {
			t.Errorf("an op is named outside ckks.LookupOp:\n%s", strings.Join(got, "\n"))
		}
		if len(m.stringLits(m.pick(anyUnder("bench")), site)) == 0 {
			t.Error("no op site name found in bench/: the matcher is blind")
		}
		for _, pkg := range []string{"internal/server", "internal/fhecli"} {
			if len(m.calls(m.pick(nonTestUnder(pkg)), "LookupOp")) == 0 {
				t.Errorf("%s does not call ckks.LookupOp", pkg)
			}
		}
	})

	// simfhe's commands return errors; only main exits.
	t.Run("SimfheExitsOnlyInMain", func(t *testing.T) {
		files := m.pick(anyUnder("cmd/simfhe"))
		var exits []call
		for _, c := range m.calls(files, "Exit") {
			if c.qual == "os" {
				exits = append(exits, c)
			}
		}
		if len(exits) != 1 || exits[0].fn != "main" {
			t.Errorf("os.Exit in cmd/simfhe at:\n%s\nwant exactly one, in main", strings.Join(wheres(exits), "\n"))
		}
		for _, f := range files {
			ast.Inspect(f.ast, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok && types.ExprString(sel) == "flag.ExitOnError" {
					t.Errorf("%s: a flag set below main exits the process", m.pos(sel))
				}
				return true
			})
		}
	})

	// The cache replay is the model's one on-chip capacity, a fully
	// associative LRU: no line size or ways to configure.
	t.Run("OneReplayGeometry", func(t *testing.T) {
		var fields, methods []string
		found := false
		for _, f := range m.pick(nonTestUnder("internal/memtrace")) {
			for _, decl := range f.ast.Decls {
				switch d := decl.(type) {
				case *ast.GenDecl:
					for _, s := range d.Specs {
						if ts, ok := s.(*ast.TypeSpec); ok && ts.Name.Name == "Geometry" {
							found = true
							if st, ok := ts.Type.(*ast.StructType); ok {
								for _, fl := range st.Fields.List {
									for _, n := range fl.Names {
										fields = append(fields, n.Name)
									}
								}
							}
						}
					}
				case *ast.FuncDecl:
					if d.Recv != nil && strings.TrimPrefix(types.ExprString(d.Recv.List[0].Type), "*") == "Geometry" {
						methods = append(methods, d.Name.Name)
					}
				}
			}
		}
		if !found || len(fields) != 1 || fields[0] != "CapacityBytes" || len(methods) > 0 {
			t.Errorf("memtrace.Geometry has fields %v and methods %v, want the one field CapacityBytes and no methods", fields, methods)
		}
	})

	// Decode composes residues in machine words; only the test-only
	// oracle computes in arbitrary precision.
	rootModule := func(f srcFile) bool { return !f.test && !f.under("bench") }
	t.Run("MathBigOnlyInOracle", func(t *testing.T) {
		var stray []string
		for _, p := range imports(m.pick(rootModule), "math/big") {
			if !strings.HasPrefix(p, "internal/oracle/") {
				stray = append(stray, p)
			}
		}
		if len(stray) > 0 {
			t.Errorf("math/big is imported outside internal/oracle: %v", stray)
		}
		if len(imports(m.pick(nonTestUnder("internal/oracle")), "math/big")) == 0 {
			t.Error("internal/oracle does not import math/big: the matcher is blind")
		}
	})
	t.Run("OracleOnlyInTests", func(t *testing.T) {
		if got := imports(m.pick(rootModule), "repro/internal/oracle"); len(got) > 0 {
			t.Errorf("internal/oracle is imported outside tests: %v", got)
		}
		if len(imports(m.pick(isTest), "repro/internal/oracle")) == 0 {
			t.Error("no test imports internal/oracle: the matcher is blind")
		}
	})

	// fhed's /metrics and /healthz are the only live endpoints.
	t.Run("NoPprof", func(t *testing.T) {
		if got := imports(m.files, "net/http/pprof"); len(got) > 0 {
			t.Errorf("net/http/pprof is imported by %v", got)
		}
		if len(imports(m.pick(nonTestUnder("internal/server")), "net/http")) == 0 {
			t.Error("internal/server does not import net/http: the matcher is blind")
		}
	})
	t.Run("ObsServesNothing", func(t *testing.T) {
		obs := m.pick(func(f srcFile) bool { return !f.test && path.Dir(f.path) == "internal/obs" })
		if len(obs) == 0 {
			t.Fatal("no non-test files in internal/obs")
		}
		if got := imports(obs, "net/http"); len(got) > 0 {
			t.Errorf("internal/obs imports net/http: %v", got)
		}
	})

	// The simulator counts costs and design.Design prices them; only its
	// command lays them out as spans on a timeline.
	t.Run("SimfheImportsNoObs", func(t *testing.T) {
		if got := imports(m.pick(anyUnder("internal/simfhe")), "repro/internal/obs"); len(got) > 0 {
			t.Errorf("internal/simfhe imports internal/obs: %v", got)
		}
		if len(imports(m.pick(nonTestUnder("cmd/simfhe")), "repro/internal/obs")) == 0 {
			t.Error("cmd/simfhe does not import internal/obs: the matcher is blind")
		}
	})
}

// removedNames are deleted second paths whose return no behavioural test
// would notice (dead code, or an option nothing sets): no identifier and
// no string literal (a flag name, an import path) in a row's files may
// equal one of its names.
var removedNames = []struct {
	what  string
	names []string
	files scope
}{
	{"CheckedBoundary", []string{"SetOpContext"}, allFiles},
	{"TransformSchedule", []string{"evalLinearTransformNaive", "HoistedModDown"}, allFiles},
	{"PolynomialSchedule", []string{"chebCtx", "chebMults", "recursionDepth", "ChebyshevDepth", "EvalChebyshev"}, allFiles},
	{"BootstrapPlan", []string{"DFTDiagonals", "bsgsSplit", "chooseN1"}, anyUnder("internal/ckks", "internal/simfhe")},
	{"KeyedStep", []string{"automorphism", "rotateFromDigits", "keySwitchDown", "keySwitchRaised"}, allFiles},
	{"ModelVsMeasured", []string{"RunDrift", "DriftReport", "DriftConfig", "driftKindOf", "modelCtx"}, nonTestUnder("internal/calib")},
	{"OpTable", []string{"evalOps"}, anyUnder("internal/server")},
	{"FaultClassSuite", []string{"ChaosSmoke", "chaos-out", "SetPanicHook", "WithFaultInjector"}, allFiles},
	{"ExperimentHome", []string{"repro/internal/core", "BenchmarkTable4", "BenchmarkFig2", "BenchmarkFig3", "BenchmarkTable6", "BenchmarkFig6LR", "BenchmarkFig6ResNet", "BenchmarkAblationSingleOpt"}, allFiles},
	{"LiveEndpoint", []string{"debug-addr", "DebugServer", "StartSpan", "StartChild", "CurrentSpan"}, allFiles},
	{"OneMachineModel", []string{"Machine", "RidgeAI", "AttainableOpsPerSec", "MemoryBound", "RooflinePoint", "Roofline", "refMachine", "aiRoofline", "BalanceFactor", "SpanRecords"}, allFiles},
	{"MachineSeconds", []string{"Seconds"}, anyUnder("internal/simfhe")},
	{"ConstructionOptions", []string{"SetKeyBudget", "SetIntegrity", "setBudget"}, allFiles},
	{"OneNTTCounter", []string{"ckks.ntt"}, nonTest},
	{"SearchConstants", []string{"Space", "ReferenceDesign"}, allFiles},
}

// named returns every identifier or string literal in files equal to one
// of names.
func (m *module) named(files []srcFile, names ...string) []string {
	var out []string
	for _, f := range files {
		ast.Inspect(f.ast, func(n ast.Node) bool {
			name := ""
			switch n := n.(type) {
			case *ast.Ident:
				name = n.Name
			case *ast.BasicLit:
				if n.Kind == token.STRING {
					name, _ = strconv.Unquote(n.Value)
				}
			}
			if name != "" && slices.Contains(names, name) {
				out = append(out, fmt.Sprintf("%s: %q", m.pos(n), name))
			}
			return true
		})
	}
	return out
}

func TestRemovedNamesStayGone(t *testing.T) {
	m := parsedModule(t)
	// anchor: the matcher finds a live name and a live flag
	if len(m.named(m.pick(nonTestUnder("internal/ckks")), "keyedStep")) == 0 || len(m.named(m.pick(anyUnder("cmd/fhed")), "chaos")) == 0 {
		t.Fatal("keyedStep in internal/ckks or fhed's -chaos flag not found: the matcher is blind")
	}
	for _, row := range removedNames {
		t.Run(row.what, func(t *testing.T) {
			// this file names every row; nothing else may
			files := m.pick(func(f srcFile) bool { return f.path != "guards_test.go" && row.files(f) })
			if len(files) == 0 {
				t.Fatal("the row's scope holds no files")
			}
			if got := m.named(files, row.names...); len(got) > 0 {
				t.Errorf("a removed name is back:\n%s", strings.Join(got, "\n"))
			}
		})
	}
}
