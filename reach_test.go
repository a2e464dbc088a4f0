package obiwan

// The reachability audit: which non-test functions and methods under
// internal/ can run in the product? It type-checks every non-test package
// of the module (benchmark/ included, as obiwan/benchmark), then follows
// every reference from the product's entry points:
//
//   - every declaration of a package main (cmd/*, examples/*, benchmark/);
//   - every exported name of the facade, and every method README.md calls
//     on a type the facade hands out;
//   - init functions and package-level variable initialisers;
//   - the methods through which a reached type satisfies an interface;
//   - the exported methods of types served or invoked by name, that is the
//     values passed to Export, ExportWithID and RegisterType.
//
// What is left is dead unless deadAllowlist names it with a reason.

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// auditLoader type-checks the module's packages from source, each once,
// and hands the standard library to the source importer.
type auditLoader struct {
	fset   *token.FileSet
	root   string // module directory
	module string // module path
	std    types.ImporterFrom
	pkgs   map[string]*auditPkg
}

type auditPkg struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

func newAuditLoader(root, module string) *auditLoader {
	fset := token.NewFileSet()
	return &auditLoader{
		fset:   fset,
		root:   root,
		module: module,
		std:    importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		pkgs:   map[string]*auditPkg{},
	}
}

func (l *auditLoader) inModule(path string) bool {
	return path == l.module || strings.HasPrefix(path, l.module+"/")
}

func (l *auditLoader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, l.root, 0)
}

func (l *auditLoader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if !l.inModule(path) {
		return l.std.ImportFrom(path, dir, mode)
	}
	p, err := l.load(path)
	if err != nil {
		return nil, err
	}
	return p.pkg, nil
}

// load parses and checks the non-test files of one module package that
// the default build context selects.
func (l *auditLoader) load(path string) (*auditPkg, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	dir := filepath.Join(l.root, filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(path, l.module), "/")))
	names, err := goFiles(dir)
	if err != nil {
		return nil, err
	}
	p := &auditPkg{info: &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}}
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, 0)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	conf := types.Config{Importer: l}
	if p.pkg, err = conf.Check(path, l.fset, p.files, p.info); err != nil {
		return nil, fmt.Errorf("type-check %s: %w", path, err)
	}
	l.pkgs[path] = p
	return p, nil
}

// goFiles lists the non-test Go files of dir that the default build
// context compiles.
func goFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil {
			return nil, err
		} else if ok {
			names = append(names, name)
		}
	}
	return names, nil
}

// loadAll checks every package directory under the module root, skipping
// testdata and hidden directories.
func (l *auditLoader) loadAll() error {
	return filepath.WalkDir(l.root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if path != l.root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if names, err := goFiles(path); err != nil || len(names) == 0 {
			return err
		}
		rel, _ := filepath.Rel(l.root, path)
		imp := l.module
		if rel != "." {
			imp += "/" + filepath.ToSlash(rel)
		}
		_, err = l.load(imp)
		return err
	})
}

// auditResult is what the audit found under internal/: every function and
// method by key ("pkg.Func" or "pkg.Type.Method", pkg relative to
// internal/) with its line count, and the keys nothing reaches.
type auditResult struct {
	funcs map[string]int
	dead  []string
}

func (r auditResult) deadLines() (n int) {
	for _, k := range r.dead {
		n += r.funcs[k]
	}
	return n
}

// reach is the walk's state: the objects reached so far, where each
// module object is declared, and the queue of objects still to walk.
type reach struct {
	l        *auditLoader
	decls    map[types.Object]ast.Node
	infos    map[types.Object]*types.Info
	seen     map[types.Object]bool
	queue    []types.Object
	ifaces   []*types.Interface
	readme   map[string]bool          // method names README.md calls
	facade   map[*types.TypeName]bool // named types the facade hands out
	byExport map[string]bool          // functions whose arguments are served by name
}

// audit walks the module at root from its entry points. readme is the text
// of the README whose method calls are product surface.
func audit(root, module, readme string) (auditResult, error) {
	l := newAuditLoader(root, module)
	if err := l.loadAll(); err != nil {
		return auditResult{}, err
	}
	r := &reach{
		l:      l,
		decls:  map[types.Object]ast.Node{},
		infos:  map[types.Object]*types.Info{},
		seen:   map[types.Object]bool{},
		readme: map[string]bool{},
		facade: map[*types.TypeName]bool{},
		byExport: map[string]bool{
			"Export": true, "ExportWithID": true, "RegisterType": true, "MustRegisterType": true,
		},
	}
	for _, m := range regexp.MustCompile(`\.([A-Z]\w*)\(`).FindAllStringSubmatch(readme, -1) {
		r.readme[m[1]] = true
	}
	r.index()
	r.collectInterfaces()

	for _, p := range l.pkgs {
		for _, f := range p.files {
			if p.pkg.Name() == "main" {
				r.walk(f, p.info)
				continue
			}
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil && d.Name.Name == "init" {
						r.mark(p.info.Defs[d.Name])
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						if vs, ok := s.(*ast.ValueSpec); ok && len(vs.Values) > 0 {
							r.walk(vs, p.info)
						}
					}
				}
			}
		}
	}
	if p := l.pkgs[module]; p != nil {
		r.facadeRoots(p.pkg)
	}
	for len(r.queue) > 0 {
		obj := r.queue[len(r.queue)-1]
		r.queue = r.queue[:len(r.queue)-1]
		if n := r.decls[obj]; n != nil {
			r.walk(n, r.infos[obj])
		}
		if tn, ok := obj.(*types.TypeName); ok {
			r.satisfy(tn)
		}
	}

	res := auditResult{funcs: map[string]int{}}
	internal := module + "/internal/"
	for obj, n := range r.decls {
		fn, ok := obj.(*types.Func)
		if !ok || !strings.HasPrefix(fn.Pkg().Path(), internal) {
			continue
		}
		key := strings.TrimPrefix(fn.Pkg().Path(), internal) + "."
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if ptr, ok := t.(*types.Pointer); ok {
				t = ptr.Elem()
			}
			key += t.(*types.Named).Obj().Name() + "."
		}
		key += fn.Name()
		res.funcs[key] = l.fset.Position(n.End()).Line - l.fset.Position(n.Pos()).Line + 1
		if !r.seen[obj] {
			res.dead = append(res.dead, key)
		}
	}
	sort.Strings(res.dead)
	return res, nil
}

// index records the declaration of every package-level object and method
// of the module.
func (r *reach) index() {
	for _, p := range r.l.pkgs {
		for _, f := range p.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					r.declare(p.info.Defs[d.Name], d, p.info)
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							r.declare(p.info.Defs[s.Name], s, p.info)
						case *ast.ValueSpec:
							for _, name := range s.Names {
								r.declare(p.info.Defs[name], s, p.info)
							}
						}
					}
				}
			}
		}
	}
}

func (r *reach) declare(obj types.Object, n ast.Node, info *types.Info) {
	if obj != nil {
		r.decls[obj] = n
		r.infos[obj] = info
	}
}

// collectInterfaces gathers every interface that could be asked of a
// value: the ones the module's packages mention, the named interfaces of
// every package they import, error, and the unnamed ones the errors
// package asserts (Unwrap, Is, As).
func (r *reach) collectInterfaces() {
	seen := map[*types.Interface]bool{}
	add := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 && it.IsMethodSet() && !seen[it] {
			seen[it] = true
			r.ifaces = append(r.ifaces, it)
		}
	}
	errT := types.Universe.Lookup("error").Type()
	add(errT)
	method := func(name string, param, result types.Type) {
		var params *types.Tuple
		if param != nil {
			params = types.NewTuple(types.NewVar(token.NoPos, nil, "", param))
		}
		sig := types.NewSignatureType(nil, nil, nil, params, types.NewTuple(types.NewVar(token.NoPos, nil, "", result)), false)
		add(types.NewInterfaceType([]*types.Func{types.NewFunc(token.NoPos, nil, name, sig)}, nil).Complete())
	}
	method("Unwrap", nil, errT)
	method("Unwrap", nil, types.NewSlice(errT))
	method("Is", errT, types.Typ[types.Bool])
	method("As", types.Universe.Lookup("any").Type(), types.Typ[types.Bool])
	visited := map[*types.Package]bool{}
	var scan func(*types.Package)
	scan = func(pkg *types.Package) {
		if visited[pkg] {
			return
		}
		visited[pkg] = true
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, imp := range pkg.Imports() {
			scan(imp)
		}
	}
	for _, p := range r.l.pkgs {
		scan(p.pkg)
		for _, tv := range p.info.Types {
			if tv.Type != nil {
				add(tv.Type)
			}
		}
	}
}

// mark queues obj if it belongs to the module and is new.
func (r *reach) mark(obj types.Object) {
	switch o := obj.(type) {
	case nil:
		return
	case *types.Func:
		obj = o.Origin()
	case *types.Var:
		obj = o.Origin()
	}
	if obj.Pkg() == nil || !r.l.inModule(obj.Pkg().Path()) || r.seen[obj] {
		return
	}
	r.seen[obj] = true
	r.queue = append(r.queue, obj)
}

// walk marks everything n refers to, and the served methods of whatever
// n passes to Export or RegisterType.
func (r *reach) walk(n ast.Node, info *types.Info) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			r.mark(info.Uses[n])
		case *ast.CallExpr:
			var callee *ast.Ident
			switch fun := ast.Unparen(n.Fun).(type) {
			case *ast.Ident:
				callee = fun
			case *ast.SelectorExpr:
				callee = fun.Sel
			case *ast.IndexExpr: // an explicit instantiation
				if sel, ok := fun.X.(*ast.SelectorExpr); ok {
					callee = sel.Sel
				}
			}
			if callee == nil || !r.byExport[callee.Name] {
				break
			}
			if obj := info.Uses[callee]; obj == nil || obj.Pkg() == nil || !r.l.inModule(obj.Pkg().Path()) {
				break
			}
			for _, arg := range n.Args {
				r.served(info.TypeOf(arg))
			}
		}
		return true
	})
}

// served marks every exported method of a concrete type invoked by name.
func (r *reach) served(t types.Type) {
	if t == nil || types.IsInterface(t) {
		return
	}
	if _, ok := t.(*types.Pointer); !ok {
		t = types.NewPointer(t)
	}
	ms := types.NewMethodSet(t)
	for i := 0; i < ms.Len(); i++ {
		if m := ms.At(i).Obj(); m.Exported() {
			r.mark(m)
		}
	}
}

// satisfy marks the methods through which a reached type satisfies an
// interface, and the README's methods on a type the facade hands out.
func (r *reach) satisfy(tn *types.TypeName) {
	named, ok := tn.Type().(*types.Named)
	if !ok || types.IsInterface(named) {
		return
	}
	ptr := types.NewPointer(named)
	ms := types.NewMethodSet(ptr)
	if ms.Len() == 0 {
		return
	}
	// An uninstantiated generic type implements nothing, so its methods
	// match interfaces by name.
	generic := named.TypeParams().Len() > 0
	for _, it := range r.ifaces {
		if !generic && !types.Implements(ptr, it) {
			continue
		}
		for i := 0; i < it.NumMethods(); i++ {
			if sel := ms.Lookup(it.Method(i).Pkg(), it.Method(i).Name()); sel != nil {
				r.mark(sel.Obj())
			}
		}
	}
	if r.facade[tn] {
		for i := 0; i < ms.Len(); i++ {
			if m := ms.At(i).Obj(); r.readme[m.Name()] {
				r.mark(m)
			}
		}
	}
}

// facadeRoots marks every exported name of the facade package and works
// out which named types it hands out: the types of those names, the
// exported fields of such types, and the results of the README's methods
// on them.
func (r *reach) facadeRoots(pkg *types.Package) {
	var queue []*types.TypeName
	var add func(types.Type)
	add = func(t types.Type) {
		switch t := t.(type) {
		case *types.Named:
			if tn := t.Origin().Obj(); !r.facade[tn] {
				r.facade[tn] = true
				queue = append(queue, tn)
			}
		case *types.Alias:
			add(types.Unalias(t))
		case *types.Pointer:
			add(t.Elem())
		case *types.Slice:
			add(t.Elem())
		case *types.Map:
			add(t.Elem())
		case *types.Signature:
			for i := 0; i < t.Params().Len(); i++ {
				add(t.Params().At(i).Type())
			}
			for i := 0; i < t.Results().Len(); i++ {
				add(t.Results().At(i).Type())
			}
		}
	}
	for _, name := range pkg.Scope().Names() {
		if obj := pkg.Scope().Lookup(name); obj.Exported() {
			r.mark(obj)
			add(obj.Type())
		}
	}
	for len(queue) > 0 {
		tn := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if st, ok := tn.Type().Underlying().(*types.Struct); ok {
			for i := 0; i < st.NumFields(); i++ {
				if st.Field(i).Exported() {
					add(st.Field(i).Type())
				}
			}
		}
		ms := types.NewMethodSet(types.NewPointer(tn.Type()))
		for i := 0; i < ms.Len(); i++ {
			if m := ms.At(i).Obj(); r.readme[m.Name()] {
				add(m.Type())
			}
		}
	}
}

// auditProblems compares an audit with its allowlist: every dead function
// must be listed, and every listed one must still exist and still be dead.
func auditProblems(res auditResult, allow map[string]string) []string {
	var out []string
	dead := map[string]bool{}
	for _, k := range res.dead {
		dead[k] = true
		if _, ok := allow[k]; !ok {
			out = append(out, fmt.Sprintf("%s (%d lines): nothing reaches it; delete it or allowlist it with a reason", k, res.funcs[k]))
		}
	}
	for k := range allow {
		if _, ok := res.funcs[k]; !ok {
			out = append(out, k+": allowlisted but no longer exists; drop the entry")
		} else if !dead[k] {
			out = append(out, k+": allowlisted but reachable; drop the entry")
		}
	}
	sort.Strings(out)
	return out
}

// TestReachabilityAudit fails on a function under internal/ that no entry
// point reaches and deadAllowlist does not name, and on an allowlist entry
// that is reachable again or gone: the list only shrinks.
func TestReachabilityAudit(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	roadmap, err := os.ReadFile("ROADMAP.md")
	if err != nil {
		t.Fatal(err)
	}
	res, err := audit(".", "obiwan", string(readme))
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d functions under internal/, %d unreachable (%d lines)", len(res.funcs), len(res.dead), res.deadLines())
	for _, p := range auditProblems(res, deadAllowlist) {
		t.Error(p)
	}

	tests := testFuncNames(t, ".")
	readmeLines := strings.Split(string(readme), "\n")
	for key, reason := range deadAllowlist {
		m := allowReason.FindStringSubmatch(reason)
		switch {
		case m == nil:
			t.Errorf("%s: reason %q is not one of test-support, roadmap <item>, test-knob <test>, readme <line>", key, reason)
		case m[1] != "" && !strings.Contains(string(roadmap), "**"+m[1]+". "):
			t.Errorf("%s: ROADMAP.md has no open item %s", key, m[1])
		case m[2] != "" && !tests[m[2]]:
			t.Errorf("%s: no test %s", key, m[2])
		case m[3] != "":
			if n, _ := strconv.Atoi(m[3]); n < 1 || n > len(readmeLines) || strings.TrimSpace(readmeLines[n-1]) == "" {
				t.Errorf("%s: README.md line %s documents nothing", key, m[3])
			}
		}
	}
}

// TestReachabilityAuditFixture runs the audit over a fixture module with
// one reachable function, one orphan and a stale allowlist entry: it must
// report exactly the orphan and the stale entry.
func TestReachabilityAuditFixture(t *testing.T) {
	res, err := audit(filepath.Join("testdata", "deadcode"), "fixture", "")
	if err != nil {
		t.Fatal(err)
	}
	got := auditProblems(res, map[string]string{"lib.Used": "test-support"})
	want := []string{
		"lib.Orphan (1 lines): nothing reaches it; delete it or allowlist it with a reason",
		"lib.Used: allowlisted but reachable; drop the entry",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("fixture audit:\n got %q\nwant %q", got, want)
	}
}

// allowReason is the closed set of reasons an unreachable function may
// stay for:
//
//   - test-support: only tests call it, as harness that other packages'
//     tests import (chaos builders, swarm scenarios, netsim fault
//     schedules) or as an accessor a test asserts through;
//   - roadmap <item>: an open ROADMAP item will call it;
//   - test-knob <test>: an option whose non-default value that test needs;
//   - readme <line>: a capability that README.md line documents but that
//     no product code calls yet.
var allowReason = regexp.MustCompile(`^(?:test-support|roadmap ([A-Z]\d+[a-z]?)|test-knob (Test\w+)|readme (\d+))$`)

var deadAllowlist = map[string]string{
	"chaos.BuildChain":                       "test-support",
	"chaos.BuildDiamond":                     "test-support",
	"chaos.BuildTree":                        "test-support",
	"chaos.Counter.Bump":                     "test-support",
	"chaos.Counter.Value":                    "test-support",
	"chaos.NewWorld":                         "test-support",
	"chaos.WalkAll":                          "test-support",
	"chaos.World.Schedule":                   "test-support",
	"chaos.World.Trace":                      "test-support",
	"chaos.walk":                             "test-support",
	"chaos.wire":                             "test-support",
	"codec.Encoder.Len":                      "test-support",
	"codec.Encoder.Reset":                    "test-support",
	"codec.Encoder.Value":                    "test-support",
	"codec.Registry.NameOf":                  "test-support",
	"codec.Registry.Names":                   "test-support",
	"consensus.Node.ID":                      "test-support",
	"consensus.Node.Term":                    "test-support",
	"consensus.Node.WaitLeader":              "test-support",
	"consensus.Store.Compact":                "roadmap S2",
	"consistency.Invalidation.Forget":        "test-support",
	"consistency.Invalidation.Holders":       "test-support",
	"consistency.Lease.Expired":              "readme 304",
	"consistency.Lease.now":                  "readme 304",
	"consistency.NewLease":                   "readme 304",
	"dissemination.Applier.LastSeq":          "readme 307",
	"dissemination.Publisher.Flush":          "readme 307",
	"dissemination.Publisher.Frontier":       "readme 307",
	"dissemination.Publisher.Lag":            "readme 307",
	"dissemination.Publisher.Pull":           "readme 307",
	"dissemination.Publisher.SetMaxLog":      "readme 307",
	"dissemination.Publisher.Subscribers":    "readme 307",
	"dissemination.Publisher.Unsubscribe":    "readme 307",
	"dissemination.TooFarBehindError.Error":  "readme 307",
	"dissemination.TooFarBehindError.Is":     "readme 307",
	"eventual.Store.CommittedState":          "test-support",
	"eventual.Store.Stats":                   "test-support",
	"eventual.Store.TentativeCount":          "test-support",
	"eventual.Store.Tracked":                 "test-support",
	"eventual.Store.TruncateCommitted":       "roadmap C3",
	"eventual.Store.VersionVector":           "test-support",
	"fleet.WithRules":                        "test-knob TestFleetEndpointsOverRMI",
	"heap.Entry.FetchedAt":                   "test-support",
	"heap.Heap.Remove":                       "readme 324",
	"invoke.Plan.Reflective":                 "test-support",
	"nameserver.Client.List":                 "test-support",
	"nameserver.Client.Unbind":               "test-support",
	"netsim.FaultSchedule.Events":            "test-support",
	"netsim.FaultSchedule.Exhausted":         "test-support",
	"netsim.FaultSchedule.Sends":             "test-support",
	"netsim.FaultSchedule.Trace":             "test-support",
	"netsim.Link.Down":                       "test-support",
	"netsim.Link.Profile":                    "test-support",
	"netsim.Link.SetSchedule":                "test-support",
	"netsim.NewFaultSchedule":                "test-support",
	"netsim.NewLink":                         "test-support",
	"netsim.RandomSchedule":                  "roadmap C1",
	"netsim.VirtualClock.Run":                "test-support",
	"objmodel.Ref.Calls":                     "test-support",
	"objmodel.RefsOf":                        "test-support",
	"replication.Engine.ForgetCluster":       "readme 324",
	"replication.Prefetcher.Wait":            "test-support",
	"replication.ProxyOut.OID":               "test-support",
	"replication.ProxyOut.Provider":          "test-support",
	"site.Site.DirtyReplicas":                "test-support",
	"site.Site.Eventual":                     "test-support",
	"site.Site.Evict":                        "readme 324",
	"site.Site.EvictColdest":                 "readme 324",
	"site.Site.Incarnation":                  "test-support",
	"site.Site.LeaseExpired":                 "readme 304",
	"site.Site.RefreshExpired":               "readme 304",
	"site.Site.ReplicaCount":                 "test-support",
	"site.Site.TruncateLog":                  "roadmap C3",
	"site.Site.clusterEntries":               "readme 324",
	"site.Site.leaseExpired":                 "readme 304",
	"site.WithCallTimeout":                   "test-knob TestLossyLinkReplicationEventuallySucceeds",
	"site.WithLease":                         "test-knob TestLeaseExpiry",
	"site.WithSiteID":                        "test-knob TestDurableRestartKeepsIdentityAndFrontier",
	"stats.Table.Len":                        "test-support",
	"swarm.LeaderFailover":                   "test-support",
	"swarm.Report.Summary":                   "test-support",
	"swarm.Report.WriteJSON":                 "test-support",
	"swarm.ReportDir":                        "test-support",
	"swarm.Roam":                             "test-support",
	"swarm.RollingPartitions":                "test-support",
	"swarm.Swarm.killHub":                    "test-support",
	"swarm.Swarm.killLeader":                 "test-support",
	"swarm.Swarm.waveMembers":                "test-support",
	"swarm.leaf.addr":                        "test-support",
	"telemetry.FlightDump.Contains":          "test-support",
	"telemetry.FlightRecorder.Snapshot":      "test-support",
	"telemetry.Gauge.Add":                    "test-support",
	"telemetry.ObjectProfile.BytesPerDemand": "test-support",
	"telemetry.Profiler.Len":                 "test-support",
	"telemetry.WithSpanCapacity":             "test-knob TestSpanRingEviction",
	"transport.MemNetwork.Reconnect":         "test-support",
	"transport.MemNetwork.SetFaultSchedule":  "test-support",
	"txn.Txn.Read":                           "test-support",
	"txn.Txn.Rollback":                       "test-support",
	"wal.Store.SiteID":                       "test-support",
}
