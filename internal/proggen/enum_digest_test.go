package proggen

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dfence/internal/memmodel"
	"dfence/internal/staticanalysis"
)

// enumDigestsFile pins Enumerate's results: one line per (program, model,
// budget) case with the state and path counts, completeness, and a sha256
// over those plus the sorted outcome and violation sets. The budget-tripped
// cases pin the visiting order as well — which states fit under a state or
// step budget depends on the order the explorer reaches them in. As with
// core's golden digests there is no update flag: a re-pin is a hand-copied
// file.
const enumDigestsFile = "testdata/enum_digests.txt"

type enumDigestCase struct {
	name string
	prog *Prog
	opts EnumOptions
	// tripped marks a case chosen to exhaust its budget; the test checks
	// it still does under RMO (the largest state space), so the case
	// keeps pinning visiting order.
	tripped bool
}

// enumDigestCases lists every litmus template, the first 20 two-thread
// random programs of seed 1 under default budgets, and budget-tripped
// enumerations: the first two three-thread randoms of seed 1 under a
// 2000-state budget, and one template under a 40-step budget.
func enumDigestCases() []enumDigestCase {
	var cs []enumDigestCase
	var firstTemplate *Prog
	for _, threads := range []int{2, 3} {
		for _, shape := range staticanalysis.CriticalCycleShapes(memmodel.RMO, threads) {
			for _, v := range TemplateVariants() {
				p := TemplateProg(shape, v)
				if firstTemplate == nil {
					firstTemplate = p
				}
				cs = append(cs, enumDigestCase{name: p.Name, prog: p})
			}
		}
	}
	two, three := 0, 0
	for idx := 0; two < 20 || three < 2; idx++ {
		p := RandomProg(1, idx)
		switch {
		case len(p.Threads) == 2 && two < 20:
			two++
			cs = append(cs, enumDigestCase{name: p.Name, prog: p})
		case len(p.Threads) == 3 && three < 2:
			three++
			cs = append(cs, enumDigestCase{
				name: p.Name + "/states=2000", prog: p,
				opts: EnumOptions{MaxStates: 2000}, tripped: true,
			})
		}
	}
	cs = append(cs, enumDigestCase{
		name: firstTemplate.Name + "/steps=40", prog: firstTemplate,
		opts: EnumOptions{MaxSteps: 40}, tripped: true,
	})
	return cs
}

// enumDigests enumerates every case under every model and returns the
// digest file's content.
func enumDigests(t *testing.T) string {
	t.Helper()
	var sb strings.Builder
	for _, c := range enumDigestCases() {
		prog, err := c.prog.Compile()
		if err != nil {
			t.Fatalf("%s: compile: %v", c.name, err)
		}
		for _, model := range memmodel.Models() {
			r := Enumerate(prog, model, c.opts)
			if c.tripped && r.Complete && model == memmodel.RMO {
				t.Errorf("%s under %v: budget did not trip (%d states)", c.name, model, r.States)
			}
			head := fmt.Sprintf("states=%d paths=%d complete=%v", r.States, r.Paths, r.Complete)
			sum := sha256.Sum256([]byte(head + "\noutcomes=" + strings.Join(r.SortedOutcomes(), ";") +
				"\nviolations=" + strings.Join(r.SortedViolations(), ";")))
			fmt.Fprintf(&sb, "%s/%v %s %x\n", c.name, model, head, sum[:8])
		}
	}
	return sb.String()
}

// TestEnumDigests: Enumerate reproduces the committed results on every
// case, budget-tripped ones included.
func TestEnumDigests(t *testing.T) {
	want, err := os.ReadFile(filepath.FromSlash(enumDigestsFile))
	if err != nil {
		t.Fatal(err)
	}
	got := enumDigests(t)
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
	t.Fatalf("%s does not match; the full file for these results is:\n%s", enumDigestsFile, got)
}
