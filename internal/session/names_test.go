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
	"suifx/internal/explorer"
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
// the quick ladder, 40 generated programs and every fixture under
// internal/viz/testdata/fixtures.
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
	paths, err := filepath.Glob(filepath.Join("..", "viz", "testdata", "fixtures", "*.f"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range paths {
		name := strings.TrimSuffix(filepath.Base(path), ".f")
		srcs[name] = fixture(t, name)
	}
	for _, name := range []string{
		"renamed-private", "renamed-recurrence", "renamed-indirect", "common-actual",
		"storage-reduction", "storage-update", "storage-local", "storage-callee-member",
		"storage-reshaped-callee", "early-exit",
	} {
		if _, ok := srcs[name]; !ok {
			t.Fatalf("fixture %s.f not found among %v", name, paths)
		}
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

// TestCalleeStorageDialogue drives the Guru on /B/ storage that MAIN/10
// reaches only through a call to F, where the storage is named X: the
// dynamic counts are read at those cells, never at a MAIN variable that
// happens to be named X, and privatizing a member names, once each, the
// members that procedures the loop reaches declare for the same storage.
func TestCalleeStorageDialogue(t *testing.T) {
	m := testManager(t, Config{})
	why := func(s *Session) *explorer.WhyReport {
		t.Helper()
		r, err := s.Why("MAIN/10")
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	// blockedByX checks why MAIN/10 is blocked by X alone, read on the
	// given lines of MAIN/10 and with all of the loop's carried
	// dependences on X's cells.
	blockedByX := func(r *explorer.WhyReport, lines []int) {
		t.Helper()
		if len(r.Blocking) != 1 || r.Blocking[0].Var != "X" {
			t.Fatalf("MAIN/10 blocked by %+v, want X alone", r.Blocking)
		}
		if b := r.Blocking[0]; !slices.Equal(b.Lines, lines) || b.DynDeps != 891 || r.DynDeps != 891 {
			t.Fatalf("why MAIN/10 = X at lines %v with %d of the loop's %d dynamic deps, want lines %v and 891 of 891",
				b.Lines, b.DynDeps, r.DynDeps, lines)
		}
	}

	red := why(mustCreate(t, m, "storage-reduction", fixture(t, "storage-reduction")))
	if !red.Chosen || red.DynDeps != 0 {
		t.Fatalf("MAIN/10 chosen=%v with %d dynamic deps, want chosen with the reduction's cells ignored (0)", red.Chosen, red.DynDeps)
	}

	blockedByX(why(mustCreate(t, m, "storage-update", fixture(t, "storage-update"))), nil)

	loc := mustCreate(t, m, "storage-local", fixture(t, "storage-local"))
	blockedByX(why(loc), nil)
	before := loc.Guru().Coverage
	out, err := loc.Assert(KindIndependent, "MAIN/10", "X")
	if err != nil || !out.Accepted {
		t.Fatalf("assert independent MAIN/10 X (MAIN's local): %+v, %v", out, err)
	}
	if li := loc.ex.Par.LoopByID("MAIN/10"); li.Dep.Parallelizable {
		t.Fatal("an assertion on MAIN's local X approved MAIN/10, which carries dependences on /B/")
	}
	if after := loc.Guru().Coverage; after != before {
		t.Fatalf("coverage moved from %v to %v", before, after)
	}

	priv := mustCreate(t, m, "storage-callee-member", fixture(t, "storage-callee-member"))
	out, err = priv.Assert(KindPrivate, "MAIN/10", "T")
	if err != nil || !out.Accepted {
		t.Fatalf("assert private MAIN/10 T: %+v, %v", out, err)
	}
	want := []string{"privatizing /B/ W for callee F automatically", "privatizing /B/ V for callee H automatically"}
	if !slices.Equal(out.Warnings, want) {
		t.Fatalf("warnings %q, want %q", out.Warnings, want)
	}

	// A callee that declares T's cells in another shape is warned for too,
	// naming each of its members that overlaps T, and no other.
	reshaped := mustCreate(t, m, "storage-reshaped-callee", fixture(t, "storage-reshaped-callee"))
	out, err = reshaped.Assert(KindPrivate, "MAIN/10", "T")
	if err != nil || !out.Accepted {
		t.Fatalf("assert private MAIN/10 T: %+v, %v", out, err)
	}
	want = []string{"privatizing /B/ W for callee F automatically", "privatizing /B/ P, Q for callee E automatically"}
	if !slices.Equal(out.Warnings, want) {
		t.Fatalf("warnings %q, want %q", out.Warnings, want)
	}
}
