package phpparser

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"hash"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/corpus"
	"repro/internal/phpast"
)

var updateAST = flag.Bool("update-ast", false, "rewrite "+astGoldenPath+" from the current code")

// astGoldenPath holds one line per input, "<sha256> <kind> <name>":
// every corpus file ("corpus", "<app>/<file>" in corpus.All() order and
// file-name order), every FuzzParse, FuzzLex and FuzzParseExpr seed
// ("parse-seed", "lex-seed", "expr-seed"; in-code lists by index,
// checked-in files by name), and one aggregate line ("screening") over
// every file of corpus.RandomPlugins(1, 1000, 20) in order. Each hash
// covers the phpast.Dump text, a reflective encoding of every field of
// the tree (so every position and EndLine, on nodes and on the Param,
// SwitchCase, Catch and PropertyDecl structs Dump leaves out), and the
// error list in order.
const astGoldenPath = "testdata/ast.golden"

// lexSeedDir and lexFuzzSource are the phplex package's checked-in
// FuzzLex seeds and the test file holding its in-code seed list.
const (
	lexSeedDir    = "../phplex/testdata/fuzz/FuzzLex"
	lexFuzzSource = "../phplex/fuzz_test.go"
	parseSeedDir  = "testdata/fuzz/FuzzParse"
)

// astHasher feeds one parse result into a SHA-256. Fields are appended
// to buf with strconv rather than fmt: the corpus alone builds millions
// of nodes.
type astHasher struct {
	h   hash.Hash
	buf []byte
}

func (a *astHasher) flush() {
	a.h.Write(a.buf)
	a.buf = a.buf[:0]
}

// hashTree hashes one parse result: n is the *phpast.File or phpast.Expr
// the parser returned (possibly nil) and errs its error list.
func hashTree(n phpast.Node, errs []error) []byte {
	a := &astHasher{h: sha256.New(), buf: make([]byte, 0, 64<<10)}
	a.buf = append(a.buf, phpast.Dump(n)...)
	a.buf = append(a.buf, 0)
	a.value(reflect.ValueOf(&n).Elem())
	a.buf = append(a.buf, 0)
	for _, err := range errs {
		a.buf = append(a.buf, err.Error()...)
		a.buf = append(a.buf, '\n')
	}
	a.flush()
	return a.h.Sum(nil)
}

// value appends a self-delimiting encoding of v: every AST node is a
// pointer, slice, map, interface or struct of the basic kinds below.
func (a *astHasher) value(v reflect.Value) {
	if len(a.buf) > 32<<10 {
		a.flush()
	}
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			a.buf = append(a.buf, '~')
			return
		}
		if v.Kind() == reflect.Interface {
			a.buf = append(a.buf, v.Elem().Type().String()...)
		}
		a.value(v.Elem())
	case reflect.Struct:
		a.buf = append(a.buf, '{')
		for i := 0; i < v.NumField(); i++ {
			a.value(v.Field(i))
		}
		a.buf = append(a.buf, '}')
	case reflect.Slice:
		a.buf = strconv.AppendInt(append(a.buf, '['), int64(v.Len()), 10)
		for i := 0; i < v.Len(); i++ {
			a.value(v.Index(i))
		}
	case reflect.Map:
		keys := v.MapKeys()
		sort.Slice(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() })
		a.buf = strconv.AppendInt(append(a.buf, '<'), int64(len(keys)), 10)
		for _, k := range keys {
			a.value(k)
			a.value(v.MapIndex(k))
		}
	case reflect.String:
		a.buf = strconv.AppendQuote(a.buf, v.String())
	case reflect.Int, reflect.Int64:
		a.buf = strconv.AppendInt(append(a.buf, ' '), v.Int(), 10)
	case reflect.Float64:
		a.buf = strconv.AppendUint(append(a.buf, 'f'), math.Float64bits(v.Float()), 16)
	case reflect.Bool:
		a.buf = strconv.AppendBool(append(a.buf, ' '), v.Bool())
	default:
		panic(fmt.Sprintf("ast golden: unhandled field kind %v (%v)", v.Kind(), v.Type()))
	}
}

// astInput is one parse the golden hashes: src through Parse, or
// through ParseExpr when expr is set.
type astInput struct {
	name, src string
	expr      bool
}

func (in astInput) hash() []byte {
	if in.expr {
		e, errs := ParseExpr(in.name, in.src)
		return hashTree(e, errs)
	}
	f, errs := Parse(in.name, in.src)
	return hashTree(f, errs)
}

// hashAll hashes every input, spreading them over GOMAXPROCS workers.
func hashAll(inputs []astInput) [][]byte {
	sums := make([][]byte, len(inputs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(inputs) {
					return
				}
				sums[i] = inputs[i].hash()
			}
		}()
	}
	wg.Wait()
	return sums
}

func sortedNames(sources map[string]string) []string {
	names := make([]string, 0, len(sources))
	for n := range sources {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// readFuzzSeed decodes a one-string "go test fuzz v1" seed file.
func readFuzzSeed(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	header, body, ok := strings.Cut(strings.TrimSpace(string(data)), "\n")
	body, ok2 := strings.CutPrefix(body, "string(")
	body, ok3 := strings.CutSuffix(body, ")")
	src, err := strconv.Unquote(body)
	if header != "go test fuzz v1" || !ok || !ok2 || !ok3 || err != nil {
		t.Fatalf("%s: want a single string(...) go fuzz seed", path)
	}
	return src
}

// seedFiles returns the decoded seeds of a checked-in fuzz corpus,
// keyed by file name, in name order.
func seedFiles(t *testing.T, dir string) (names, srcs []string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		names = append(names, e.Name())
		srcs = append(srcs, readFuzzSeed(t, filepath.Join(dir, e.Name())))
	}
	return names, srcs
}

// inCodeSeeds returns the string literals of the []string composite
// literal in the named function of a Go test file: the in-code seed list
// of a fuzz target in another package, which this package cannot import.
func inCodeSeeds(t *testing.T, path, fn string) []string {
	t.Helper()
	file, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var seeds []string
	for _, d := range file.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Name.Name != fn {
			continue
		}
		ast.Inspect(fd, func(n ast.Node) bool {
			lit, ok := n.(*ast.CompositeLit)
			if !ok {
				return true
			}
			for _, el := range lit.Elts {
				bl, ok := el.(*ast.BasicLit)
				if !ok || bl.Kind != token.STRING {
					t.Fatalf("%s: %s seed list holds a non-literal", path, fn)
				}
				s, err := strconv.Unquote(bl.Value)
				if err != nil {
					t.Fatal(err)
				}
				seeds = append(seeds, s)
			}
			return false
		})
	}
	if len(seeds) == 0 {
		t.Fatalf("%s: no seed list in %s", path, fn)
	}
	return seeds
}

// TestASTGolden freezes every tree the parser builds, with positions and
// errors, over the corpus, the parser and lexer fuzz seeds and the
// screening population. Run with -update-ast to rewrite the file after a
// deliberate change.
func TestASTGolden(t *testing.T) {
	var inputs []astInput
	var keys []string // "<kind> <name>" of each golden line
	add := func(kind, name string, in astInput) {
		inputs = append(inputs, in)
		keys = append(keys, kind+" "+strconv.Quote(name))
	}
	for _, app := range corpus.All() {
		for _, n := range sortedNames(app.Sources) {
			add("corpus", app.Name+"/"+n, astInput{name: n, src: app.Sources[n]})
		}
	}
	for i, src := range fuzzSeeds {
		add("parse-seed", "#"+strconv.Itoa(i), astInput{name: "fuzz.php", src: src})
	}
	names, srcs := seedFiles(t, parseSeedDir)
	for i, src := range srcs {
		add("parse-seed", names[i], astInput{name: "fuzz.php", src: src})
	}
	for i, src := range inCodeSeeds(t, lexFuzzSource, "FuzzLex") {
		add("lex-seed", "#"+strconv.Itoa(i), astInput{name: "fuzz.php", src: src})
	}
	names, srcs = seedFiles(t, lexSeedDir)
	for i, src := range srcs {
		add("lex-seed", names[i], astInput{name: "fuzz.php", src: src})
	}
	for i, src := range fuzzExprSeeds {
		add("expr-seed", "#"+strconv.Itoa(i), astInput{name: "fuzz.php", src: src, expr: true})
	}
	lines := len(inputs)
	for _, app := range corpus.RandomPlugins(1, 1000, 20) {
		for _, n := range sortedNames(app.Sources) {
			inputs = append(inputs, astInput{name: n, src: app.Sources[n]})
		}
	}
	sums := hashAll(inputs)
	var got []string
	for i, key := range keys {
		got = append(got, fmt.Sprintf("%x %s", sums[i], key))
	}
	// The screening population is one line: the hash of its files'
	// hashes in order.
	agg := sha256.New()
	for _, sum := range sums[lines:] {
		agg.Write(sum)
	}
	got = append(got, fmt.Sprintf("%x screening %q", agg.Sum(nil),
		fmt.Sprintf("RandomPlugins(1, 1000, 20) %d files", len(inputs)-lines)))

	text := strings.Join(got, "\n") + "\n"
	if *updateAST {
		if err := os.WriteFile(astGoldenPath, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(astGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(want) != len(got) {
		t.Fatalf("%s has %d lines, want %d", astGoldenPath, len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("AST drifted:\n got: %s\nwant: %s", got[i], want[i])
		}
	}
}
