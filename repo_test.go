// Static gates over the repository tree. They used to be shell steps of
// .github/workflows/ci.yml, where no tier-1 run could see them; here a
// violation fails `go test ./...`.
package mccls

import (
	"bytes"
	"go/ast"
	"go/build"
	"go/format"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"

	"mccls/internal/aodv"
	"mccls/internal/experiments"
	"mccls/internal/kgcd"
	"mccls/internal/radio"
	"mccls/internal/secrouting"
)

// maxNonTestLines is the ceiling on non-test Go outside bench/, as counted
// by `find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' |
// xargs cat | wc -l`. ROADMAP aim 2 tracks the number; lower it with every
// subtraction, raise it only with a reason in CHANGES.md.
const maxNonTestLines = 13989

// maxDesignLines is the ceiling on DESIGN.md, which describes the design as
// it is; history belongs in CHANGES.md. A heading may not name a PR either.
const maxDesignLines = 845

// mathBigFiles are the shipped files that may import math/big: init-time
// constant derivation, the *big.Int adapters of the exported API and
// key-file parsing. Scalars are fr.Element on every
// per-call path, so a new importer is a regression until shown otherwise.
var mathBigFiles = map[string]bool{
	"mccls.go":                     true,
	"cmd/kgcd/main.go":             true,
	"cmd/mcclskeys/main.go":        true,
	"internal/bn254/const.go":      true,
	"internal/bn254/fp.go":         true,
	"internal/bn254/fp/fp.go":      true,
	"internal/bn254/fp2.go":        true,
	"internal/bn254/fr/fr.go":      true,
	"internal/bn254/g1.go":         true,
	"internal/bn254/g2.go":         true,
	"internal/bn254/glv.go":        true,
	"internal/bn254/wnaf.go":       true,
	"internal/core/keys.go":        true,
	"internal/core/kgc.go":         true,
	"internal/threshold/shamir.go": true,
}

// deletedNames are identifiers (bare, or package-qualified) of surfaces that
// were folded away and may not come back under their old names: the compact
// wire encoding, kgcd's client/breaker option structs, the per-family sweep
// configs, the zero sentinel, DSR's config, the highway model, the second
// and third declarations of the routing counters, the *big.Int hash, the
// accessors only tests reached, the enrollment config, the cost model's
// overhead knob, the radio's copy of the fault-window vocabulary, kgcd's
// copy of it, the knob and the reader nobody needed, the re-encoding
// public-key decodes, a hop counter nobody read, the simulator behaviours
// and switches no figure ran (HELLO beacons, the collision model, the
// no-index switch with its shipped naive scan, the base loss rate and the
// intermediate-reply switch), the fault windows themselves (link, region
// and loss) with the schedule that carried them, the scenario's event
// budget and the test-only delivery hooks, and kgcd's two circuit breakers
// with the below-quorum precheck and the Retry-After hint that served them,
// the drill's identity pool that kept its traffic in the cache, the
// single-table replay and reduced multi-pairing that MillerLoopMixed and
// FinalExp replaced, the G1/G2 doubling chains walkWNAF replaced, and the
// Verifier's three identity caches with the table cap and the no-evict
// insert that one signer record per identity replaced, and kgcd's hedge
// with its adaptive delay, its floor, the per-replica latency ring that fed
// it and its counter, Params.QID and Params.Generator, whose last
// callers the short hash to G2 replaced (methods: the gate sees bare names),
// and the batch fallback's lone-offender scan, quotient bisection, leaf
// check and the interface over them, which one Verify per S-group replaced,
// and the one-index compare that EqualBaseMultAddMany's Jacobian tail
// replaced (the tests keep the walk as their oracle, equalWalk), and fp's
// exported loose sum and q² pad, which only its own composition and tests
// reached once the Fp2 products became kernels, and the batch plane's
// aggregate equation: its chunk width, its random weights drawn as
// endomorphism halves with the joint ladders that consumed them, the G2
// eigenvalue map only those ladders used, and the line-table rule that
// served it beside Verify (its generic helpers — check, pass, group, reject
// — are common words and stay off the list), and the mixed Miller loop,
// whose two live shapes became MillerLoopMulti and G2Lines.MillerLoop, and
// the trial runner's surface, which the sweep's own runTrials on fan.Out
// replaced.
var deletedNames = []string{
	"MarshalCompact", "MarshalCompressed",
	"NewClientWithConfig", "ClientConfig", "BreakerConfig",
	"ResilienceConfig", "CityConfig", "ExplicitZero", "dsr.Config", "HighwayMobility",
	"metrics.Aggregate", "NewAggregate", "experiments.SweepResult", "SweepResult",
	"bn254.HashToScalar", "HashToScalar",
	"HasRoute", "CachedRoute", "AllEnrolled", "RunContext", "RunDSRContext", "KernelPath",
	"EnrollConfig", "OverheadBytes", "AddLinkOutage", "AddRegionOutage", "AddLossWindow",
	"ScheduleActionAt",
	"kgcd.FaultSchedule", "kgcd.Latency", "kgcd.Crash", "RotatingCrashes", "ValidateCombined",
	"limitedBody", "reassemblePublicKey", "appendU64", "HopsFwd",
	"HelloInterval", "aodv.Hello", "kindHello", "HelloSent", "NeighborsLost", "disableIntermediateReply",
	"Collisions", "Collided", "trackReception", "NoIndex", "NeighborsNaive", "lossRate",
	"LinkOutage", "RegionOutage", "LossWindow", "fault.Schedule", "FaultSchedule", "ChurnConfig",
	"SetFaults", "linkFaulted", "lossAt", "MaxEvents", "OnDeliver",
	"ErrCircuitOpen", "BreakerState", "newBreaker", "admissibleReplicas", "retryAfterSeconds",
	"parseRetryAfter", "RetryAfter", "chaosIDs",
	"MillerLoopLines", "PairMulti",
	"g1ScalarMultGLV", "g2ScalarMultGLV", "g2JointWNAF", "g2JacMultWNAF", "endoLadder",
	"rhsCache", "qidCache", "lineCache", "lineCacheCap", "PutIfRoom",
	"hedgeDelay", "hedgeFloor", "latencyRing", "hedgedRequests",
	"QID", "Generator",
	"locate", "bisect", "checkOne", "judge",
	"EqualBaseMultAdd",
	"LooseAdd", "AddQSquared",
	"chunkWidth", "weightSeed", "newWeightSeed", "EndoScalar", "endoRows",
	"ScalarBaseMultSubEndo", "MultiScalarMultEndo", "glvLambdaFr", "glvBetaG2", "lineTable",
	"MillerLoopMixed",
	"runner.Run", "runner.Options", "runner.Obs", "runner.Trial", "runner.PanicError",
}

// deletedDirs are the packages and commands that went with them.
var deletedDirs = []string{"internal/batch", "internal/faulthttp", "cmd/mcclsbench", "internal/metrics", "internal/runner"}

// goFile is one parsed .go file of the tree, path relative to the root.
type goFile struct {
	path string
	src  []byte
	ast  *ast.File
}

func (f goFile) shipped() bool {
	return !strings.HasSuffix(f.path, "_test.go") && !strings.HasPrefix(f.path, "bench/")
}

// repoFiles parses every .go file under the repository root (hidden
// directories — .git, the benchmark's .bench_build — excepted).
func repoFiles(t *testing.T) []goFile {
	t.Helper()
	var files []goFile
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		parsed, err := parser.ParseFile(fset, path, src, parser.ParseComments)
		if err != nil {
			return err
		}
		files = append(files, goFile{filepath.ToSlash(path), src, parsed})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestRepoTree parses the tree once and runs the per-file gates over it.
func TestRepoTree(t *testing.T) {
	files := repoFiles(t)
	t.Run("gofmt", func(t *testing.T) { gofmtClean(t, files) })
	t.Run("line-ceiling", func(t *testing.T) { nonTestLineCeiling(t, files) })
	t.Run("math-big-allow-list", func(t *testing.T) { mathBigAllowList(t, files) })
	t.Run("deleted-surfaces", func(t *testing.T) { deletedSurfacesStayDeleted(t, files) })
	t.Run("kgcd-one-clock", func(t *testing.T) { kgcdOneClock(t, files) })
}

func gofmtClean(t *testing.T, files []goFile) {
	for _, f := range files {
		want, err := format.Source(f.src)
		if err != nil {
			t.Fatalf("%s: %v", f.path, err)
		}
		if !bytes.Equal(want, f.src) {
			t.Errorf("%s needs gofmt", f.path)
		}
	}
}

func nonTestLineCeiling(t *testing.T, files []goFile) {
	lines := 0
	for _, f := range files {
		if f.shipped() {
			lines += bytes.Count(f.src, []byte("\n"))
		}
	}
	t.Logf("non-test lines: %d (ceiling %d)", lines, maxNonTestLines)
	if lines > maxNonTestLines {
		t.Errorf("%d non-test lines, ceiling is %d", lines, maxNonTestLines)
	}
}

func mathBigAllowList(t *testing.T, files []goFile) {
	importers := map[string]bool{}
	for _, f := range files {
		if !f.shipped() {
			continue
		}
		for _, imp := range f.ast.Imports {
			if imp.Path.Value == `"math/big"` {
				importers[f.path] = true
				if !mathBigFiles[f.path] {
					t.Errorf("%s imports math/big and is not on the allow-list", f.path)
				}
			}
		}
	}
	for path := range mathBigFiles {
		if !importers[path] {
			t.Errorf("%s is on the math/big allow-list but no longer imports it: drop the entry", path)
		}
	}
}

// TestRepoDesignDoc holds DESIGN.md under its line ceiling and keeps PR
// numbers out of its headings.
func TestRepoDesignDoc(t *testing.T) {
	src, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(src), "\n"), "\n")
	t.Logf("DESIGN.md lines: %d (ceiling %d)", len(lines), maxDesignLines)
	if len(lines) > maxDesignLines {
		t.Errorf("DESIGN.md has %d lines, ceiling is %d", len(lines), maxDesignLines)
	}
	prNumber := regexp.MustCompile(`PR \d`)
	for i, line := range lines {
		if strings.HasPrefix(line, "#") && prNumber.MatchString(line) {
			t.Errorf("DESIGN.md:%d: heading names a PR: %s", i+1, line)
		}
	}
}

// TestCIRunListsNameTests: every Test…/Fuzz… alternative of a -run '…' list
// in the CI workflow is a prefix of a test function declared in a _test.go
// file of a package the same command lists, so a renamed test cannot drop
// out of a step without an error. An alternative is a plain name, anchored
// or not, optionally with a subtest path.
func TestCIRunListsNameTests(t *testing.T) {
	ci, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string][]string{} // package directory → its test files' functions
	for _, f := range repoFiles(t) {
		if !strings.HasSuffix(f.path, "_test.go") {
			continue
		}
		dir := path.Dir(f.path)
		for _, d := range f.ast.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil {
				declared[dir] = append(declared[dir], fn.Name.Name)
			}
		}
	}
	runList := regexp.MustCompile(`-run '([^']*)'(.*)`)
	for n, line := range strings.Split(string(ci), "\n") {
		m := runList.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		var dirs []string
		for _, arg := range strings.Fields(m[2]) {
			if arg == "." || strings.HasPrefix(arg, "./") {
				dirs = append(dirs, path.Clean(arg))
			}
		}
		for _, alt := range strings.Split(m[1], "|") {
			name, _, _ := strings.Cut(strings.TrimSuffix(strings.TrimPrefix(alt, "^"), "$"), "/")
			if !strings.HasPrefix(name, "Test") && !strings.HasPrefix(name, "Fuzz") {
				continue
			}
			if regexp.QuoteMeta(name) != name {
				t.Errorf("ci.yml:%d: -run alternative %q is not a plain test name", n+1, alt)
				continue
			}
			if !slices.ContainsFunc(dirs, func(dir string) bool {
				return slices.ContainsFunc(declared[dir], func(fn string) bool { return strings.HasPrefix(fn, name) })
			}) {
				t.Errorf("ci.yml:%d: -run alternative %q names no test function in %v", n+1, alt, dirs)
			}
		}
	}
}

// TestRepoLayering: internal/routing is the substrate both protocols embed;
// DSR and the authenticators must not reach it through AODV.
func TestRepoLayering(t *testing.T) {
	var reaches func(dir string, seen map[string]bool) bool
	reaches = func(dir string, seen map[string]bool) bool {
		if seen[dir] {
			return false
		}
		seen[dir] = true
		pkg, err := build.ImportDir(dir, 0)
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		for _, imp := range pkg.Imports {
			if imp == "mccls/internal/aodv" {
				return true
			}
			if rest, ok := strings.CutPrefix(imp, "mccls/"); ok && reaches(rest, seen) {
				return true
			}
		}
		return false
	}
	for _, dir := range []string{"internal/dsr", "internal/secrouting"} {
		if reaches(dir, map[string]bool{}) {
			t.Errorf("%s depends on internal/aodv", dir)
		}
	}
}

func deletedSurfacesStayDeleted(t *testing.T, files []goFile) {
	for _, dir := range deletedDirs {
		if _, err := os.Stat(dir); err == nil {
			t.Errorf("%s is back", dir)
		}
	}
	for _, f := range files {
		if f.path == "repo_test.go" {
			continue
		}
		// Every identifier, every pkg.Name selector, and every type
		// declaration qualified by its own package.
		used := map[string]bool{}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				used[n.Name] = true
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok {
					used[x.Name+"."+n.Sel.Name] = true
				}
			case *ast.TypeSpec:
				used[f.ast.Name.Name+"."+n.Name.Name] = true
			}
			return true
		})
		for _, name := range deletedNames {
			if used[name] {
				t.Errorf("%s mentions %s, which was deleted", f.path, name)
			}
		}
	}
}

// kgcdOneClock: kgcd owns one clock (internal/kgcd/clock.go);
// everything else in the package, tests included, tells and spends time
// through it, so its tests never wait on the wall clock.
func kgcdOneClock(t *testing.T, files []goFile) {
	wall := map[string]bool{
		"time.Now": true, "time.Since": true, "time.Sleep": true, "time.After": true,
		"time.NewTimer": true, "time.AfterFunc": true, "time.Tick": true,
		"context.WithTimeout": true, "context.WithDeadline": true,
	}
	for _, f := range files {
		if filepath.Dir(f.path) != "internal/kgcd" || f.path == "internal/kgcd/clock.go" {
			continue
		}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok && wall[x.Name+"."+sel.Sel.Name] {
					t.Errorf("%s uses %s.%s outside clock.go", f.path, x.Name, sel.Sel.Name)
				}
			}
			return true
		})
	}
}

// TestRepoOptionCounts pins the independently settable exported values of
// the experiment plane's and the KGC service's configs, so the next knob is
// a failing test and a deliberate edit here, not a review comment.
func TestRepoOptionCounts(t *testing.T) {
	for _, tc := range []struct {
		cfg  any
		want int
	}{
		{experiments.Scenario{}, 16}, // 15 of its own + the AODV struct below
		{experiments.SweepConfig{}, 7},
		{aodv.Config{}, 2},
		{radio.Config{}, 1},
		{secrouting.McCLSAuth{}, 2},
		{secrouting.CostModelAuth{}, 2},
		{kgcd.Config{}, 8},
		{kgcd.ClusterConfig{}, 4},
	} {
		typ, got := reflect.TypeOf(tc.cfg), 0
		for i := 0; i < typ.NumField(); i++ {
			if typ.Field(i).IsExported() {
				got++
			}
		}
		if got != tc.want {
			t.Errorf("%v has %d exported fields, pinned at %d", typ, got, tc.want)
		}
	}
}
