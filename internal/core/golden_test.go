package core

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dfence/internal/memmodel"
	"dfence/internal/progs"
	"dfence/internal/spec"
)

// goldenDigestsFile pins synthesis results over the benchmark corpus: one
// line per cell, the cell key and a sha256 over everything resultKey
// covers plus SolverTruncated. These recorded results — not a second
// implementation kept alive beside the first — are what a change to the
// solver, the scheduler, or the repair loop is checked against.
const goldenDigestsFile = "testdata/golden_digests.txt"

// goldenDigests runs every corpus cell (benchmark × criterion × model ×
// seed) and returns the digest file's content.
func goldenDigests(t *testing.T) string {
	t.Helper()
	criteria := []spec.Criterion{spec.MemorySafety, spec.SeqConsistency, spec.Linearizability}
	models := []memmodel.Model{memmodel.SC, memmodel.TSO, memmodel.PSO, memmodel.RMO}
	var sb strings.Builder
	for _, b := range progs.All() {
		for _, crit := range criteria {
			if b.SkipSeqCheck && crit != spec.MemorySafety {
				continue
			}
			for _, model := range models {
				for _, seed := range []int64{1, 2} {
					res, err := Synthesize(b.Program(), Config{
						Model:            model,
						Criterion:        crit,
						NewSpec:          b.NewSpec(),
						CheckGarbage:     b.CheckGarbage,
						RelaxStealAborts: b.RelaxStealAborts,
						ExecsPerRound:    200,
						MaxRounds:        10,
						Seed:             seed,
						Workers:          2,
						ValidateFences:   true,
						MaxItersPerExec:  20000,
					})
					key := fmt.Sprintf("%s/%v/%v/seed=%d", b.Name, crit, model, seed)
					if err != nil {
						t.Fatalf("%s: %v", key, err)
					}
					sum := sha256.Sum256([]byte(fmt.Sprintf("%s truncated=%v", resultKey(res), res.SolverTruncated)))
					fmt.Fprintf(&sb, "%s %x\n", key, sum)
				}
			}
		}
	}
	return sb.String()
}

// TestGoldenDigests: synthesis over the whole corpus reproduces the
// committed digests. There is deliberately no update flag: a re-pin is a
// hand-copied file, so it shows up as a reviewed diff.
func TestGoldenDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus sweep")
	}
	want, err := os.ReadFile(filepath.FromSlash(goldenDigestsFile))
	if err != nil {
		t.Fatal(err)
	}
	got := goldenDigests(t)
	if got == string(want) {
		return
	}
	wantLines := strings.Split(string(want), "\n")
	gotLines := strings.Split(got, "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var w, g string
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if w != g {
			t.Errorf("line %d: want %q, got %q", i+1, w, g)
		}
	}
	t.Fatalf("%s does not match; the full file for these results is:\n%s", goldenDigestsFile, got)
}
