package wl

import (
	"fmt"
	"math"
)

// Output checks. The reference for every utility is the exact MRR scan
// of a verification server booted on the same graph, layer and pool
// flags but without sketches, so the checks compare against a value that
// does not depend on sketch state, registry lineage or client
// interleaving:
//
//   - a solve's utility is the exact estimate of its plan, bit for bit
//     (branch-and-bound re-verifies every incumbent exactly);
//   - an exact-mode estimate is bit-identical to the reference (index
//     and scan estimators sum in the same order by construction);
//   - a sketch-mode estimate lies within 1/√k relative error of it — a
//     sketch whose touched slots are stored whole still differs in the
//     last bits through its summation order;
//   - a simulate result is bit-identical to the verification server's
//     (forward Monte-Carlo is a pure function of plan, runs and seed).
//
// Registry outcome flags (cache_hit, prefix_hit, extended, coalesced)
// depend on how clients interleave and are never checked.

// SketchTolerance is the relative error a sketch-mode estimate may show.
func SketchTolerance(k int) float64 { return 1 / math.Sqrt(float64(k)) }

// CheckExact reports an error unless got equals want bit for bit.
func CheckExact(what string, got, want float64) error {
	if math.Float64bits(got) != math.Float64bits(want) {
		return fmt.Errorf("%s: %v (%#016x) != exact %v (%#016x)", what, got, math.Float64bits(got), want, math.Float64bits(want))
	}
	return nil
}

// CheckSketch reports an error unless got lies within relative error
// 1/√k of the exact value want.
func CheckSketch(what string, got, want float64, k int) error {
	if math.IsNaN(got) || math.IsInf(got, 0) {
		return fmt.Errorf("%s: sketch estimate %v is not finite", what, got)
	}
	if d := math.Abs(got - want); d > SketchTolerance(k)*math.Abs(want) {
		return fmt.Errorf("%s: sketch estimate %v off exact %v by %.3g (tolerance %.3g relative)", what, got, want, d/math.Abs(want), SketchTolerance(k))
	}
	return nil
}

// RelErr is |got-want|/|want|, 0 when both are 0.
func RelErr(got, want float64) float64 {
	if got == want {
		return 0
	}
	return math.Abs(got-want) / math.Abs(want)
}
