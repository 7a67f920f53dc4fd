package explorer

import (
	"fmt"
	"strings"
)

// WhyReport is the Chapter-2 "why (not) parallel" explanation for one loop,
// with the source lines a visualizer needs: the loop's verdict, the
// blocking variables with the compiler's reason and the lines where each is
// referenced inside the loop, and the annotated source snippet.
type WhyReport struct {
	LoopID string `json:"loop"`
	Proc   string `json:"proc"`
	Lines  [2]int `json:"lines"`

	Parallelizable bool `json:"parallelizable"`
	Chosen         bool `json:"chosen"`
	UnderParallel  bool `json:"under_parallel,omitempty"`
	HasIO          bool `json:"has_io,omitempty"`

	CoveragePct   float64 `json:"coverage_pct"`
	GranularityMs float64 `json:"granularity_ms"`
	DynDeps       int64   `json:"dyn_deps"`

	// Verdict is the one-line human summary the Guru narrates.
	Verdict string `json:"verdict"`
	// Blocking lists the unresolved variables with reasons and use lines.
	Blocking []BlockedVar `json:"blocking,omitempty"`
	// Source is the loop's annotated source snippet (capped).
	Source []SourceLine `json:"source,omitempty"`
}

// BlockedVar is one variable the parallelizer could not resolve.
type BlockedVar struct {
	Var    string `json:"var"`
	Reason string `json:"reason"`
	// Lines are the source lines inside the loop referencing the variable —
	// the anchors a slice or an annotated-source view starts from.
	Lines []int `json:"lines,omitempty"`
	// DynDeps counts dynamic flow dependences observed on the variable's
	// storage for the profiled input (0 is the paper's hint that a PRIVATE
	// or INDEPENDENT assertion is plausible).
	DynDeps int64 `json:"dyn_deps"`
}

// SourceLine is one annotated line of the loop body.
type SourceLine struct {
	Line    int    `json:"line"`
	Text    string `json:"text"`
	Blocked bool   `json:"blocked,omitempty"` // references a blocking variable
}

// maxWhySource caps the snippet so explanations of huge loops stay wire-friendly.
const maxWhySource = 60

// Why explains one loop's parallelization verdict. Unknown loop IDs return
// a RejectError with code RejectUnknownLoop.
func (s *Session) Why(loopID string) (*WhyReport, error) {
	li := s.Par.LoopByID(loopID)
	if li == nil {
		return nil, rejectf(RejectUnknownLoop, "explorer: unknown loop %s", loopID)
	}
	lo, hi := li.Region.Lines()
	r := &WhyReport{
		LoopID:         li.ID(),
		Proc:           li.Region.Proc.Name,
		Lines:          [2]int{lo, hi},
		Parallelizable: li.Dep.Parallelizable,
		Chosen:         li.Chosen,
		UnderParallel:  li.UnderParallel,
		HasIO:          li.Dep.HasIO,
	}
	if s.Prof != nil {
		if lp := s.Prof.Of(li.Region.Loop); lp != nil {
			if total := float64(s.Prof.TotalOps()); total > 0 {
				r.CoveragePct = float64(lp.TotalOps) / total * 100
			}
			r.GranularityMs = s.Opts.Model.OpsToMs(lp.OpsPerInvocation())
		}
	}
	if s.Dyn != nil {
		r.DynDeps = s.Dyn.Carried(li.Region.Loop)
	}

	g := s.Graph()
	blockedLines := map[int]bool{}
	for _, b := range li.Dep.Blocking {
		bv := BlockedVar{Var: li.Region.Proc.Own(b.Sym).Name, Reason: b.Reason}
		for ln := lo; ln <= hi; ln++ {
			if len(g.FindUse(r.Proc, bv.Var, ln)) > 0 {
				bv.Lines = append(bv.Lines, ln)
				blockedLines[ln] = true
			}
		}
		if s.Dyn != nil && s.in != nil {
			if alo, ahi, ok := s.in.SymRange(r.Proc, bv.Var); ok {
				bv.DynDeps = s.Dyn.CarriedInRange(li.Region.Loop, alo, ahi)
			}
		}
		r.Blocking = append(r.Blocking, bv)
	}
	r.Verdict = verdict(r)

	for ln := lo; ln <= hi && len(r.Source) < maxWhySource; ln++ {
		text := strings.TrimRight(s.Prog.SourceLine(ln), " \t")
		if text == "" {
			continue
		}
		r.Source = append(r.Source, SourceLine{Line: ln, Text: text, Blocked: blockedLines[ln]})
	}
	return r, nil
}

func verdict(r *WhyReport) string {
	switch {
	case r.Chosen:
		return "parallel: chosen as an outermost parallel loop"
	case r.Parallelizable && r.UnderParallel:
		return "parallelizable, but already runs inside a chosen parallel loop"
	case r.Parallelizable:
		return "parallelizable, but an enclosing loop was chosen instead"
	case r.HasIO:
		return "sequential: the loop performs I/O"
	case len(r.Blocking) > 0:
		names := make([]string, len(r.Blocking))
		for i, b := range r.Blocking {
			names[i] = b.Var
		}
		return fmt.Sprintf("sequential: blocked by %s", strings.Join(names, ", "))
	default:
		return "sequential"
	}
}
