package summary

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/phpast"
	"repro/internal/phpparser"
)

var updateFacts = flag.Bool("update-facts", false, "rewrite "+corpusFactsPath+" from the current code")

// corpusFactsPath holds one line per input, "<sha256> <kind> <name>":
// every corpus app ("app", in corpus.All() order) and every checked-in
// FuzzSummaryEquivalence seed ("seed", in file-name order). The hash
// covers factsFingerprint over all of the input's functions, so a
// change to any fact the interpreter reads shows up here even for
// functions no scanned path calls (which corpus_reports.golden cannot
// see).
const corpusFactsPath = "testdata/corpus_facts.golden"

// summarySeedDir is the interp package's checked-in seed corpus for
// FuzzSummaryEquivalence.
const summarySeedDir = "../interp/testdata/fuzz/FuzzSummaryEquivalence"

// factsFingerprint renders the engine-facing facts of every name the
// program table registers, sorted, reading each through Lookup of the
// declaration the name resolves to, as the interpreter does.
func factsFingerprint(prog *phpast.Program) string {
	names := make([]string, 0, len(prog.Funcs))
	for n := range prog.Funcs {
		names = append(names, n)
	}
	sort.Strings(names)
	set := new(Set)
	var sb strings.Builder
	for _, n := range names {
		s := set.Lookup(prog.Funcs[n])
		fmt.Fprintf(&sb, "%s escapes=%t reason=%q dead=%q merge=%q\n",
			n, s.Escapes, s.EscapeReason, s.DeadVars, s.MergeVars)
	}
	return sb.String()
}

// factsOf summarizes files parsed in sorted-name order, as the scanner
// parses a target.
func factsOf(sources map[string]string) string {
	names := make([]string, 0, len(sources))
	for n := range sources {
		names = append(names, n)
	}
	sort.Strings(names)
	var files []*phpast.File
	for _, n := range names {
		if f, _ := phpparser.Parse(n, sources[n]); f != nil {
			files = append(files, f)
		}
	}
	return fmt.Sprintf("%x", sha256.Sum256([]byte(factsFingerprint(phpast.NewProgram(files)))))
}

// readFuzzSeed decodes a one-string "go test fuzz v1" seed file.
func readFuzzSeed(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitN(strings.TrimSpace(string(data)), "\n", 2)
	if len(lines) != 2 || lines[0] != "go test fuzz v1" {
		t.Fatalf("%s: not a go fuzz seed", path)
	}
	body, ok := strings.CutPrefix(lines[1], "string(")
	body, ok2 := strings.CutSuffix(body, ")")
	src, err := strconv.Unquote(body)
	if !ok || !ok2 || err != nil {
		t.Fatalf("%s: want a single string(...) value", path)
	}
	return src
}

// TestCorpusFactsGolden freezes the facts the interpreter reads from
// summaries (escape verdict and reason, dead and merge variables) for
// every function in the corpus and the summary fuzz seeds. Run with
// -update-facts to rewrite the file after a deliberate change.
func TestCorpusFactsGolden(t *testing.T) {
	var got []string
	for _, app := range corpus.All() {
		got = append(got, factsOf(app.Sources)+" app "+app.Name)
	}
	seeds, err := os.ReadDir(summarySeedDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range seeds {
		src := readFuzzSeed(t, filepath.Join(summarySeedDir, e.Name()))
		got = append(got, factsOf(map[string]string{"fuzz.php": src})+" seed "+e.Name())
	}
	text := strings.Join(got, "\n") + "\n"
	if *updateFacts {
		if err := os.WriteFile(corpusFactsPath, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(corpusFactsPath)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(want) != len(got) {
		t.Fatalf("%s has %d lines, want %d", corpusFactsPath, len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("summary facts drifted:\n got: %s\nwant: %s", got[i], want[i])
		}
	}
}
