package main

import (
	"encoding/json"
	"fmt"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildLint compiles the chimelint binary once per test run.
func buildLint(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "chimelint")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building chimelint: %v\n%s", err, out)
	}
	return bin
}

// The multichecker must register the full ten-analyzer suite: the
// seven per-package analyzers plus the three interprocedural ones.
func TestListRegistersAllTenAnalyzers(t *testing.T) {
	bin := buildLint(t)
	out, err := exec.Command(bin, "-list").Output()
	if err != nil {
		t.Fatalf("chimelint -list: %v", err)
	}
	got := strings.Fields(string(out))
	want := []string{"virtualclock", "seededrand", "verbgate", "lockword", "dmerrors", "obsnames", "durableio", "maporder", "noalloc", "lockorder"}
	if len(got) != len(want) {
		t.Fatalf("registered analyzers = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("registered analyzers = %v, want %v", got, want)
		}
	}
}

// A known-bad module (wall-clock + global rand in a sim-facing
// package) must fail the lint with diagnostics from the right
// analyzers.
func TestExitsNonZeroOnBadFixture(t *testing.T) {
	bin := buildLint(t)
	cmd := exec.Command(bin, "./...")
	cmd.Dir = "testdata/badmod"
	out, err := cmd.CombinedOutput()
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("expected non-zero exit on bad fixture, got err=%v\n%s", err, out)
	}
	if code := ee.ExitCode(); code != 2 {
		t.Fatalf("exit code = %d, want 2\n%s", code, out)
	}
	for _, needle := range []string{
		"(virtualclock)", "(seededrand)", "time.Sleep", "rand.Intn",
		// The seeded interprocedural bugs: a map range reaching a
		// printed sink through a call, and an annotated function
		// allocating both directly and through a callee.
		"(maporder)", "(noalloc)", "grow: append",
	} {
		if !strings.Contains(string(out), needle) {
			t.Errorf("output missing %q:\n%s", needle, out)
		}
	}
}

// Two consecutive runs over the same tree must be byte-identical:
// the interprocedural fact flow may not leak map order or any other
// nondeterminism into the report.
func TestOutputBitIdentical(t *testing.T) {
	bin := buildLint(t)
	run := func() string {
		cmd := exec.Command(bin, "./...")
		cmd.Dir = "testdata/badmod"
		out, err := cmd.CombinedOutput()
		if _, ok := err.(*exec.ExitError); !ok {
			t.Fatalf("expected findings on bad fixture, got err=%v\n%s", err, out)
		}
		return string(out)
	}
	first := run()
	if first == "" {
		t.Fatal("no output on bad fixture")
	}
	for i := 0; i < 3; i++ {
		if got := run(); got != first {
			t.Fatalf("run %d differs from first\n--- first ---\n%s\n--- got ---\n%s", i+2, first, got)
		}
	}
}

// The go vet driver protocol must also reject the bad fixture: this is
// the -vettool integration path CI and editors use.
func TestVetToolModeOnBadFixture(t *testing.T) {
	bin := buildLint(t)
	cmd := exec.Command("go", "vet", "-vettool="+bin, "./...")
	cmd.Dir = "testdata/badmod"
	out, err := cmd.CombinedOutput()
	if _, ok := err.(*exec.ExitError); !ok {
		t.Fatalf("expected go vet -vettool to fail on bad fixture, got err=%v\n%s", err, out)
	}
	if !strings.Contains(string(out), "(virtualclock)") {
		t.Errorf("vet output missing virtualclock diagnostic:\n%s", out)
	}
}

// The real tree must lint clean — this is `make lint` pinned as a test,
// so a regression anywhere in the repo fails `go test ./...` too.
func TestRepoLintsClean(t *testing.T) {
	bin := buildLint(t)
	cmd := exec.Command(bin, "./...")
	cmd.Dir = "../.."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("chimelint on the repo: %v\n%s", err, out)
	}
}

// repoSuppressions is the audited count of //lint:allow directives in
// the tree. The pin forces every new suppression through review: if
// you added one deliberately, bump this and say why in the commit.
const repoSuppressions = 24

// -suppressions must inventory every allow directive with analyzer,
// location and reason, and agree with the audited count.
func TestSuppressionsTable(t *testing.T) {
	bin := buildLint(t)
	cmd := exec.Command(bin, "-suppressions")
	cmd.Dir = "../.."
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("chimelint -suppressions: %v", err)
	}
	s := string(out)
	if !strings.Contains(s, fmt.Sprintf("TOTAL%s%d", "\t", repoSuppressions)) &&
		!strings.Contains(s, fmt.Sprintf("TOTAL         %d", repoSuppressions)) {
		t.Errorf("suppressions table total != %d:\n%s", repoSuppressions, s)
	}
	for _, needle := range []string{"ANALYZER", "LOCATION", "REASON", "noalloc", "virtualclock"} {
		if !strings.Contains(s, needle) {
			t.Errorf("suppressions table missing %q:\n%s", needle, s)
		}
	}
}

// The -json variant must carry the same inventory, machine-readable.
func TestSuppressionsJSON(t *testing.T) {
	bin := buildLint(t)
	cmd := exec.Command(bin, "-suppressions", "-json")
	cmd.Dir = "../.."
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("chimelint -suppressions -json: %v", err)
	}
	var entries []struct {
		Analyzer string `json:"analyzer"`
		Reason   string `json:"reason"`
		File     string `json:"file"`
		Line     int    `json:"line"`
	}
	if err := json.Unmarshal(out, &entries); err != nil {
		t.Fatalf("parsing -suppressions -json: %v\n%s", err, out)
	}
	if len(entries) != repoSuppressions {
		t.Errorf("suppression count = %d, want %d", len(entries), repoSuppressions)
	}
	for i, e := range entries {
		if e.Analyzer == "" || e.Reason == "" || e.File == "" || e.Line == 0 {
			t.Errorf("entry %d incomplete: %+v", i, e)
		}
		if filepath.IsAbs(e.File) {
			t.Errorf("entry %d file %q not module-relative", i, e.File)
		}
	}
}
