package wl

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

func TestSameSeedSameRequestList(t *testing.T) {
	for _, name := range Names {
		a, err := Generate(name, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := Generate(name, 7)
		c, _ := Generate(name, 8)
		ea, _ := a.Encode()
		eb, _ := b.Encode()
		ec, _ := c.Encode()
		if !bytes.Equal(ea, eb) {
			t.Errorf("%s: seed 7 gave two different request lists", name)
		}
		if bytes.Equal(ea, ec) {
			t.Errorf("%s: seeds 7 and 8 gave the same request list", name)
		}
	}
}

func TestUnknownWorkload(t *testing.T) {
	if _, err := Generate("nope", 1); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

// Estimates that cite a solve must follow it in the same list, so the
// cited plan exists when the estimate is sent.
func TestPlanFromCitesEarlierSolve(t *testing.T) {
	for _, name := range Names {
		w, _ := Generate(name, 3)
		for cl, list := range w.Lists {
			for i, r := range list {
				if r.PlanFrom < 0 {
					if r.Kind != Solve && r.Plan == nil {
						t.Fatalf("%s client %d position %d: %s without a plan", name, cl, i, r.Kind)
					}
					continue
				}
				if r.PlanFrom >= i || list[r.PlanFrom].Kind != Solve {
					t.Fatalf("%s client %d position %d cites position %d", name, cl, i, r.PlanFrom)
				}
			}
		}
	}
}

// Cycling lists hold the same multiset of request shapes for every
// seed: only their order and the random plans differ.
func TestCyclingListsSameShapes(t *testing.T) {
	shapes := func(w *Workload) map[string]int {
		m := map[string]int{}
		for _, list := range w.Lists {
			for _, r := range list {
				r.Plan, r.PlanFrom = nil, 0
				b, _ := r.Body(nil)
				m[string(b)]++
			}
		}
		return m
	}
	for _, name := range []string{WarmMix, DeepSearch} {
		a, _ := Generate(name, 1)
		b, _ := Generate(name, 2)
		sa, sb := shapes(a), shapes(b)
		if len(sa) != len(sb) {
			t.Fatalf("%s: %d vs %d request shapes", name, len(sa), len(sb))
		}
		for k, n := range sa {
			if sb[k] != n {
				t.Fatalf("%s: shape %s appears %d vs %d times", name, k, n, sb[k])
			}
		}
	}
}

func TestPercentileRule(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(200 - i) // unsorted on purpose
	}
	if v, ok := Percentile(xs, 95); !ok || v != 190 {
		t.Fatalf("p95 of 1..200 = %v, %v; want 190, reportable (10 beyond)", v, ok)
	}
	if _, ok := Percentile(xs[:199], 95); ok {
		t.Fatal("p95 of 199 samples has 9 beyond it and must not be reported")
	}
	if v, ok := Percentile([]float64{3, 1, 2}, 50); !ok || v != 2 {
		t.Fatalf("p50 of {1,2,3} = %v, %v", v, ok)
	}
	if _, ok := Percentile(nil, 50); ok {
		t.Fatal("percentile of no samples reported")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []Span{
		{Name: "request", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 30, End: 50, Parent: 0},   // overlaps a: union 10..50
		{Name: "c", Start: 90, End: 120, Parent: 0},  // clipped to the parent: 90..100
		{Name: "a.1", Start: 15, End: 20, Parent: 1}, // grandchild: a's child only
	}
	self := SelfTimes(spans)
	want := []int64{100 - 40 - 10, 30 - 5, 20, 30, 5}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("span %s self = %d, want %d", spans[i].Name, self[i], want[i])
		}
	}
}

func TestCheckerAcceptsSketchULPs(t *testing.T) {
	exact := 8.534603080537154
	for _, sketch := range []float64{
		8.534603080537156, // measured: sketch vs exact scan, same plan
		math.Nextafter(math.Nextafter(exact, 10), 10), // 2 ULPs up
		math.Nextafter(math.Nextafter(exact, 0), 0),   // 2 ULPs down
	} {
		if err := CheckSketch("estimate", sketch, exact, SketchK); err != nil {
			t.Fatalf("sketch %v vs exact %v rejected: %v", sketch, exact, err)
		}
	}
	if err := CheckSketch("estimate", exact*(1+0.9/16), exact, SketchK); err != nil {
		t.Fatalf("sketch inside 1/sqrt(k) rejected: %v", err)
	}
	if err := CheckSketch("estimate", exact*(1+1.1/16), exact, SketchK); err == nil {
		t.Fatal("sketch outside 1/sqrt(k) accepted")
	}
	if err := CheckSketch("estimate", math.NaN(), exact, SketchK); err == nil {
		t.Fatal("NaN sketch accepted")
	}
}

func TestCheckerRejectsExactDrift(t *testing.T) {
	exact := 8.534603080537154
	if err := CheckExact("estimate", exact, exact); err != nil {
		t.Fatal(err)
	}
	if err := CheckExact("estimate", exact*(1+1e-12), exact); err == nil {
		t.Fatal("1e-12 relative change accepted in exact mode")
	}
	if err := CheckExact("estimate", math.Nextafter(exact, 10), exact); err == nil {
		t.Fatal("1-ULP change accepted in exact mode")
	}
}

// The benchmark passes every server setting as a flag and every request
// parameter in the body, so neither oipa-serve's defaults nor the
// traced replay's reading of them can drift apart unseen.
func TestServerAndRequestsExplicit(t *testing.T) {
	for _, name := range Names {
		w, _ := Generate(name, 1)
		if w.Windows < 1 {
			t.Errorf("%s: %d windows", name, w.Windows)
		}
		flags := map[string]bool{}
		fs := w.Server.Flags()
		for i := 0; i < len(fs); i += 2 {
			if flags[fs[i]] {
				t.Errorf("%s: flag %s twice", name, fs[i])
			}
			flags[fs[i]] = true
		}
		for _, f := range []string{"-pool", "-poolseed", "-ratio", "-layouts", "-instances", "-sketch-k", "-mem-budget", "-mem-epoch", "-mem-tick"} {
			if !flags[f] {
				t.Errorf("%s: flag %s not passed", name, f)
			}
		}
		r := w.Lists[0][0]
		b, _ := r.Body(r.Plan)
		var m map[string]interface{}
		_ = json.Unmarshal(b, &m)
		if m["seed"] != float64(SampleSeed) {
			t.Errorf("%s: request without an explicit seed: %s", name, b)
		}
		if r.Kind == Solve && (m["epsilon"] != Epsilon || m["tolerance"] != Tolerance) {
			t.Errorf("%s: solve without explicit epsilon and tolerance: %s", name, b)
		}
	}
}
