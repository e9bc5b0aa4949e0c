package core

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"dfence/internal/ir"
	"dfence/internal/memmodel"
	"dfence/internal/progs"
	"dfence/internal/spec"
	"dfence/internal/synth"
)

// trialOutcomesFile pins the fence-dropping trials — Synthesize's
// validation pass and FindRedundantFences — on inputs the corpus sweep of
// golden_digests.txt does not reach: more fences than an execution's
// touched-fence mask has bits, and a fence list that stacks two fences of
// one kind at one site with a different kind between them, so dropping the
// middle one leaves a same-site, same-kind pair that synth.InsertFences
// collapses. As with the golden digests there is no update flag: a re-pin
// is a hand-copied file.
const trialOutcomesFile = "testdata/trial_outcomes.txt"

// chaseLevConfig is the chase-lev/PSO/SC configuration of the recorded
// trials.
func chaseLevConfig(t *testing.T) (*ir.Program, Config) {
	t.Helper()
	b, err := progs.ByName("chase-lev")
	if err != nil {
		t.Fatal(err)
	}
	return b.Program(), Config{
		Model:            memmodel.PSO,
		Criterion:        spec.SeqConsistency,
		NewSpec:          b.NewSpec(),
		RelaxStealAborts: b.RelaxStealAborts,
		ExecsPerRound:    150,
		MaxRounds:        5,
		Seed:             7,
		Workers:          2,
	}
}

// wideFenceList returns a full fence and a store-load fence after every
// non-branching instruction of chase-lev's operations: more fences than
// interp.MaxWatchedFences.
func wideFenceList(prog *ir.Program) []synth.InsertedFence {
	var names []string
	for name, f := range prog.Funcs {
		if f.IsOperation {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	var out []synth.InsertedFence
	for _, kind := range []ir.FenceKind{ir.FenceFull, ir.FenceStoreLoad} {
		for _, name := range names {
			for _, in := range prog.Funcs[name].Code {
				switch in.Op {
				case ir.OpBr, ir.OpCondBr, ir.OpRet:
					continue
				}
				out = append(out, synth.InsertedFence{After: in.Label, Kind: kind})
			}
		}
	}
	return out
}

func fenceList(fs []synth.InsertedFence) string {
	parts := make([]string, len(fs))
	for i, f := range fs {
		parts[i] = fmt.Sprintf("%v=L%d", f, f.Label)
	}
	return "[" + strings.Join(parts, ", ") + "]"
}

// validated runs the validation pass over fences on prog and renders
// its outcome.
func validated(prog *ir.Program, cfg Config, fences []synth.InsertedFence) string {
	cfg.ValidateFences = true
	cfg.fill()
	result := &Result{Program: prog.Clone(), Fences: fences}
	if err := validateFences(prog, &cfg, result, newJudgeCaches(&cfg)); err != nil {
		return "error=" + err.Error()
	}
	return fmt.Sprintf("redundant=%d kept=%s", result.Redundant, fenceList(result.Fences))
}

// redundant runs FindRedundantFences and renders its outcome.
func redundant(prog *ir.Program, cfg Config, execsPerFence int) string {
	labels, err := FindRedundantFences(prog, cfg, execsPerFence)
	if err != nil {
		return "error=" + err.Error()
	}
	return fmt.Sprintf("redundant=%v", labels)
}

// recordedTrialOutcomes runs every recorded case and returns the file's
// content.
func recordedTrialOutcomes(t *testing.T) string {
	t.Helper()
	var sb strings.Builder
	prog, cfg := chaseLevConfig(t)

	res, err := Synthesize(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&sb, "find-redundant/chase-lev/PSO synthesized=%s %s\n",
		fenceList(res.Fences), redundant(res.Program, cfg, 150))

	put := []synth.InsertedFence{
		{After: 5, Kind: ir.FenceStoreStore},
		{After: 5, Kind: ir.FenceLoadLoad},
		{After: 5, Kind: ir.FenceStoreStore},
	}
	fmt.Fprintf(&sb, "validate/stacked-put %s\n", validated(prog, cfg, put))
	take := append([]synth.InsertedFence{{After: 48, Kind: ir.FenceStoreLoad}}, put...)
	fmt.Fprintf(&sb, "validate/stacked-put+take %s\n", validated(prog, cfg, take))

	wide := wideFenceList(prog)
	small := cfg
	small.ValidateExecs = 30
	fmt.Fprintf(&sb, "validate/wide fences=%d %s\n", len(wide), validated(prog, small, wide))
	fenced := prog.Clone()
	if _, err := synth.InsertFences(fenced, wide); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&sb, "find-redundant/wide fences=%d %s\n", len(fenced.Fences()), redundant(fenced, cfg, 30))
	return sb.String()
}

// TestRecordedTrialOutcomes: the validation pass and FindRedundantFences
// reproduce the committed outcomes.
func TestRecordedTrialOutcomes(t *testing.T) {
	want, err := os.ReadFile(filepath.FromSlash(trialOutcomesFile))
	if err != nil {
		t.Fatal(err)
	}
	got := recordedTrialOutcomes(t)
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
	t.Fatalf("%s does not match; the full file for these results is:\n%s", trialOutcomesFile, got)
}
