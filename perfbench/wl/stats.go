package wl

import (
	"math"
	"sort"
)

// MinBeyond is how many samples must rank above a percentile before it
// is reported: a p95 needs at least 200 samples.
const MinBeyond = 10

// Percentile returns the nearest-rank p-th percentile of xs (0 < p <= 100)
// and whether it may be reported: ok is false when fewer than MinBeyond
// samples rank above it, or when the median (p = 50) has no samples. xs
// is sorted in place.
func Percentile(xs []float64, p float64) (v float64, ok bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	beyond := n - rank
	if p > 50 && beyond < MinBeyond {
		return xs[rank-1], false
	}
	return xs[rank-1], true
}

// Span is one traced call: a layer boundary the traced replay crossed.
// Times are nanoseconds from the trace origin; Parent is the index of
// the enclosing span in the same trace, -1 for a request's root.
type Span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Allocs uint64 `json:"allocs,omitempty"`
	// Count and Work are the call's work counts: samples drawn or
	// indexed, layouts built and looked up, runs simulated, τ evals.
	Count int64 `json:"count,omitempty"`
	Work  int64 `json:"work,omitempty"`
}

// Metric is one reported value with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// SelfTimes returns each span's self time: its duration minus the part
// of its interval that its child spans cover (overlapping children are
// counted once, and a child's part outside its parent is ignored).
func SelfTimes(spans []Span) []int64 {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = (s.End - s.Start) - covered(s, spans, kids[i])
	}
	return self
}

// covered measures the union of the children's intervals clipped to p.
func covered(p Span, spans []Span, kids []int) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := spans[k].Start, spans[k].End
		if a < p.Start {
			a = p.Start
		}
		if b > p.End {
			b = p.End
		}
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	for i, v := range ivs {
		if i == 0 || v.a > curB {
			total += curB - curA
			curA, curB = v.a, v.b
		} else if v.b > curB {
			curB = v.b
		}
	}
	return total + curB - curA
}
