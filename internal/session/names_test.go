package session

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"suifx/internal/corpus"
	"suifx/internal/depend"
	"suifx/internal/ir"
	"suifx/internal/workloads"
)

// fixture reads one of the programs under internal/viz/testdata/fixtures.
func fixture(t *testing.T, name string) string {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("..", "viz", "testdata", "fixtures", name+".f"))
	if err != nil {
		t.Fatal(err)
	}
	return string(src)
}

// declaredStorage returns p's symbol for sym's storage, judged from the
// declarations alone: sym itself, or p's common member with sym's block,
// offset and shape; nil when p declares no such storage.
func declaredStorage(p *ir.Proc, sym *ir.Symbol) *ir.Symbol {
	for _, s := range p.SortedSyms() {
		if s == sym || sym.Common != "" && s.Common == sym.Common &&
			s.CommonOffset == sym.CommonOffset && slices.Equal(s.Dims, sym.Dims) {
			return s
		}
	}
	return nil
}

// checkName fails unless name is how proc declares sym's storage or, for
// storage proc does not declare, the storage's own name.
func checkName(t *testing.T, where string, proc *ir.Proc, name string, sym *ir.Symbol) {
	t.Helper()
	want := sym.Name
	if d := declaredStorage(proc, sym); d != nil {
		want = d.Name
	}
	if name != want {
		t.Errorf("%s calls %s's %s by the name %s", where, proc.Name, want, name)
	}
}

// TestNamesAreTheLoopsOwn checks every name a user sees for a loop's
// storage — in each rendered verdict, each Guru target and each why report
// — against the declarations of the loop's procedure, on every workload,
// the quick ladder, 40 generated programs and the renamed-member fixtures.
func TestNamesAreTheLoopsOwn(t *testing.T) {
	srcs := map[string]string{}
	for _, w := range workloads.All() {
		srcs[w.Name] = w.Source
	}
	for _, tier := range corpus.QuickLadder() {
		srcs["tier"+tier.Name] = tier.Generate().Source
	}
	for seed := int64(1); seed <= 40; seed++ {
		cfg := corpus.Config{
			TargetLines: 300 + 40*int(seed), CallDepth: 1 + int(seed)%5, CallFanout: 1 + int(seed)%3,
			LoopDepth: 1 + int(seed)%3, AliasDensity: 0.4, ReductionMix: 0.3, TripLo: 2, TripHi: 8,
		}
		srcs[fmt.Sprintf("gen-seed%d", seed)] = corpus.Generate(seed, cfg).Source
	}
	for _, name := range []string{"renamed-private", "renamed-recurrence", "renamed-indirect", "common-actual"} {
		srcs[name] = fixture(t, name)
	}
	m := testManager(t, Config{MaxSessions: 1})
	for name, src := range srcs {
		s := mustCreate(t, m, name, src)
		par := s.ex.Par
		verdicts := par.Verdicts()
		for i, li := range par.Ordered {
			proc, vv := li.Region.Proc, verdicts[i].Vars
			for _, vr := range li.Dep.Vars {
				if vr.Class == depend.ClassReadOnly || vr.Class == depend.ClassIndex {
					continue
				}
				checkName(t, name+" verdict "+li.ID(), proc, vv[0].Name, vr.Sym)
				vv = vv[1:]
			}
			if len(li.Dep.Blocking) == 0 || par.LoopByID(li.ID()) != li {
				continue
			}
			why, err := s.Why(li.ID())
			if err != nil {
				t.Fatalf("%s: why %s: %v", name, li.ID(), err)
			}
			for j, b := range li.Dep.Blocking {
				checkName(t, name+" why "+li.ID(), proc, why.Blocking[j].Var, b.Sym)
			}
		}
		guru := s.Guru()
		for i, tg := range s.ex.Targets() {
			for j, b := range tg.Loop.Dep.Blocking {
				checkName(t, name+" target "+tg.ID(), tg.Loop.Region.Proc, guru.Targets[i].Blocking[j].Var, b.Sym)
			}
		}
	}
}

// TestRenamedMemberDialogue drives the Guru on storage a callee declares
// under another name: why names the loop's own variable with its lines and
// dynamic dependences, and an assertion on that name reaches the test.
func TestRenamedMemberDialogue(t *testing.T) {
	m := testManager(t, Config{})

	rec := mustCreate(t, m, "renamed-recurrence", fixture(t, "renamed-recurrence"))
	why, err := rec.Why("MAIN/10")
	if err != nil {
		t.Fatal(err)
	}
	if len(why.Blocking) != 1 {
		t.Fatalf("MAIN/10 blocked by %+v, want T alone", why.Blocking)
	}
	if b := why.Blocking[0]; b.Var != "T" || !slices.Equal(b.Lines, []int{8}) || b.DynDeps == 0 {
		t.Fatalf("why MAIN/10 = %s %v with %d dynamic deps, want T at line 8 with its carried deps", b.Var, b.Lines, b.DynDeps)
	}
	if !strings.HasSuffix(why.Verdict, "blocked by T") {
		t.Fatalf("verdict %q, want blocked by T", why.Verdict)
	}

	ind := mustCreate(t, m, "renamed-indirect", fixture(t, "renamed-indirect"))
	out, err := ind.Assert(KindIndependent, "MAIN/10", "T")
	if err != nil || !out.Accepted {
		t.Fatalf("assert independent MAIN/10 T: %+v, %v", out, err)
	}
	if li := ind.ex.Par.LoopByID("MAIN/10"); !li.Dep.Parallelizable {
		t.Fatalf("MAIN/10 still blocked by %v after the assertion", li.Dep.Blocking)
	}
	for _, tg := range out.Guru.Targets {
		if tg.Loop == "MAIN/10" {
			t.Fatal("MAIN/10 still a sequential target after the assertion")
		}
	}
}
