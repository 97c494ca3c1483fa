package gate

import (
	"fmt"
	"io"
	"strings"
)

// The renderers share one tabular shape: a row per cell with the measured
// value of each bound kind in a fixed column, "-" where the cell's SLO
// does not bound that kind. Text goes to the terminal and CI logs;
// markdown goes to GitHub job summaries ($GITHUB_STEP_SUMMARY).

// textRow lays out one line of the text table: gate, cell, algo, threads,
// the four bound columns, verdict.
const textRow = "%-16s %-26s %-22s %4s  %10s %9s %8s %6s  %s\n"

// cellValue renders one bound column for one cell: the measured value,
// marked with "!" when the check failed; "-" when the bound is absent.
func cellValue(cr *CellReport, name string) string {
	for _, ck := range cr.Checks {
		if ck.Name != name {
			continue
		}
		var v string
		switch name {
		case "min_ops_per_sec":
			v = fmt.Sprintf("%.3g", ck.Value)
		case "max_violations":
			v = fmt.Sprintf("%.0f", ck.Value)
		default:
			v = fmt.Sprintf("%.3f", ck.Value)
		}
		if ck.Detail != "" {
			v = "?"
		}
		if !ck.Pass {
			v += "!"
		}
		return v
	}
	// A failed "present" check (missing point) shows in the verdict; value
	// columns stay blank.
	return "-"
}

func cellVerdict(cr *CellReport) string {
	if cr.Pass {
		return "pass"
	}
	for _, ck := range cr.Checks {
		if !ck.Pass && ck.Name == "present" {
			return "MISSING"
		}
	}
	return "FAIL"
}

// WriteText renders the report as one aligned table, with failure details
// listed under it.
func WriteText(w io.Writer, rep *Report) {
	fmt.Fprintf(w, textRow, "gate", "cell", "algo", "t", "ops/s", "p99(ms)", "aborts", "viol", "verdict")
	var details []string
	for gi := range rep.Gates {
		g := &rep.Gates[gi]
		if g.Error != "" {
			fmt.Fprintf(w, textRow, g.Name, "(gate error)", "", "", "-", "-", "-", "-", "ERROR")
			details = append(details, fmt.Sprintf("%s: %s", g.Name, g.Error))
			continue
		}
		for ci := range g.Cells {
			cr := &g.Cells[ci]
			t := ""
			if cr.Threads > 0 {
				t = fmt.Sprintf("%d", cr.Threads)
			}
			fmt.Fprintf(w, textRow, g.Name, cr.Cell, cr.Algo, t,
				cellValue(cr, "min_ops_per_sec"), cellValue(cr, "max_p99_ms"),
				cellValue(cr, "max_abort_rate"), cellValue(cr, "max_violations"), cellVerdict(cr))
			for _, ck := range cr.Checks {
				if !ck.Pass {
					details = append(details, describeFailure(g.Name, cr, &ck))
				}
			}
		}
	}
	if len(details) > 0 {
		fmt.Fprintln(w, "\nfailures:")
		for _, d := range details {
			fmt.Fprintf(w, "  %s\n", d)
		}
	}
	if rep.Pass {
		fmt.Fprintln(w, "\nrhgate: all gates pass")
	} else {
		fmt.Fprintln(w, "\nrhgate: FAILED")
	}
}

// WriteMarkdown renders the report as a GitHub-flavored markdown table,
// the shape CI appends to $GITHUB_STEP_SUMMARY.
func WriteMarkdown(w io.Writer, rep *Report) {
	if rep.Pass {
		fmt.Fprintln(w, "## Conformance gate: ✅ pass")
	} else {
		fmt.Fprintln(w, "## Conformance gate: ❌ FAILED")
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "| gate | cell | algo | t | ops/s | p99(ms) | aborts | viol | verdict |")
	fmt.Fprintln(w, "|---|---|---|---|---|---|---|---|---|")
	var details []string
	for gi := range rep.Gates {
		g := &rep.Gates[gi]
		if g.Error != "" {
			fmt.Fprintf(w, "| %s | (gate error) | | | | | | | ❌ |\n", g.Name)
			details = append(details, fmt.Sprintf("`%s`: %s", g.Name, g.Error))
			continue
		}
		for ci := range g.Cells {
			cr := &g.Cells[ci]
			verdict := "✅"
			if !cr.Pass {
				verdict = "❌"
			}
			t := ""
			if cr.Threads > 0 {
				t = fmt.Sprintf("%d", cr.Threads)
			}
			fmt.Fprintf(w, "| %s | %s | %s | %s | %s | %s | %s | %s | %s |\n",
				g.Name, cr.Cell, cr.Algo, t,
				cellValue(cr, "min_ops_per_sec"), cellValue(cr, "max_p99_ms"),
				cellValue(cr, "max_abort_rate"), cellValue(cr, "max_violations"), verdict)
			for _, ck := range cr.Checks {
				if !ck.Pass {
					details = append(details, describeFailure(g.Name, cr, &ck))
				}
			}
		}
	}
	if len(details) > 0 {
		fmt.Fprintln(w, "\n**Failures:**")
		for _, d := range details {
			fmt.Fprintf(w, "- %s\n", d)
		}
	}
}

func describeFailure(gate string, cr *CellReport, ck *Check) string {
	loc := fmt.Sprintf("%s/%s", gate, cr.Cell)
	if cr.Algo != "" {
		loc += "/" + cr.Algo
	}
	if cr.Threads > 0 {
		loc += fmt.Sprintf("/t=%d", cr.Threads)
	}
	if ck.Detail != "" {
		return fmt.Sprintf("%s: %s: %s", loc, ck.Name, ck.Detail)
	}
	rel := "<"
	if strings.HasPrefix(ck.Name, "max_") {
		rel = ">"
	}
	return fmt.Sprintf("%s: %s: %.4g %s bound %.4g", loc, ck.Name, ck.Value, rel, ck.Bound)
}
