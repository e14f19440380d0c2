// Package check is the property-based invariant harness of the repository:
// deterministic, seed-reproducible generators for random dataflow graphs,
// VM/price grids, gain update streams and fault plans (gen.go), and a
// cross-layer auditor (audit.go) that verifies the accounting identities
// the paper's claims rest on — Eq. 2-5 gain consistency, §3 quantum/lease
// accounting, §5.3 non-delaying interleaving, §6.1 execution semantics and
// the fault-conservation rules of the recovery subsystem — on any realized
// execution, schedule, gain evaluator or B+Tree.
//
// The auditor is wired into the test suites of sim, sched, interleave,
// gain and fault, and into the fuzz targets of this package, so every
// future optimization inherits the full invariant catalog (DESIGN.md §8)
// instead of only the hand-picked examples it was reviewed with.
package check

import (
	"fmt"
	"strings"
)

// Violation is one broken invariant: a short stable name (the key used in
// DESIGN.md §8) plus a human-readable detail.
type Violation struct {
	Name   string
	Detail string
}

func (v Violation) String() string { return v.Name + ": " + v.Detail }

// Report accumulates violations so one audit pass surfaces every broken
// invariant instead of stopping at the first.
type Report struct {
	Violations []Violation
}

func (r *Report) addf(name, format string, args ...any) {
	r.Violations = append(r.Violations, Violation{Name: name, Detail: fmt.Sprintf(format, args...)})
}

// Err returns nil for a clean report, otherwise an error listing every
// violation.
func (r *Report) Err() error {
	if len(r.Violations) == 0 {
		return nil
	}
	var b strings.Builder
	fmt.Fprintf(&b, "check: %d invariant violation(s):", len(r.Violations))
	for _, v := range r.Violations {
		b.WriteString("\n  ")
		b.WriteString(v.String())
	}
	return fmt.Errorf("%s", b.String())
}
