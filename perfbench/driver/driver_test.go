package main

import (
	"encoding/json"
	"math"
	"net/http"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"oipa/perfbench/wl"
)

var testCampaign = &wl.Campaign{Name: "c", Pieces: []wl.Piece{{Name: "a", Topics: map[string]float64{"0": 1}}}}

func solveResult(plan [][]int32, utility float64) *result {
	return &result{
		req:    &wl.Request{Kind: wl.Solve, Campaign: testCampaign, Method: "babp", K: 2, Theta: 40_000, PlanFrom: -1},
		status: http.StatusOK,
		resp:   response{Utility: utility, Plan: plan},
	}
}

func estimateResult(plan [][]int32, utility float64, mode string) *result {
	return &result{
		req:    &wl.Request{Kind: wl.Estimate, Campaign: testCampaign, Theta: 40_000, PlanFrom: 0},
		plan:   plan,
		status: http.StatusOK,
		resp:   response{Utility: utility, EstimateMode: mode},
	}
}

// answer fills every reference with the exact value the verification
// server would return for its plan.
func answer(items map[string]*verifyItem, exact map[int32]float64) {
	for _, it := range items {
		it.value = exact[it.req.Plan[0][1]]
	}
}

const exactU = 8.534603080537154

func TestCheckAcceptsExactSolveAndSketchULPs(t *testing.T) {
	plan := [][]int32{{3, 7}}
	results := []*result{
		solveResult(plan, exactU),
		estimateResult(plan, exactU, "exact"),
		estimateResult(plan, 8.534603080537156, "sketch"), // 2 ULPs off
	}
	items := referenceItems(results)
	if len(items) != 1 {
		t.Fatalf("%d reference queries for one plan", len(items))
	}
	answer(items, map[int32]float64{7: exactU})
	if fails := checkResults(results, items); len(fails) != 0 {
		t.Fatalf("correct outputs rejected: %v", fails)
	}
}

func TestCheckRejectsExactDrift(t *testing.T) {
	plan := [][]int32{{3, 7}}
	results := []*result{estimateResult(plan, exactU*(1+1e-12), "exact")}
	items := referenceItems(results)
	answer(items, map[int32]float64{7: exactU})
	if fails := checkResults(results, items); len(fails) != 1 {
		t.Fatalf("1e-12 relative drift in exact mode: %v", fails)
	}
}

// A solve that reports the utility of one plan but returns a plan with a
// swapped seed is checked against the exact estimate of the plan it
// returned, and fails.
func TestCheckRejectsSwappedPlanSeed(t *testing.T) {
	results := []*result{solveResult([][]int32{{3, 8}}, exactU)}
	items := referenceItems(results)
	answer(items, map[int32]float64{7: exactU, 8: 7.25})
	fails := checkResults(results, items)
	if len(fails) != 1 || !strings.Contains(fails[0], "solve utility") {
		t.Fatalf("swapped plan seed: %v", fails)
	}
}

func TestCheckRejectsSketchOutsideTolerance(t *testing.T) {
	plan := [][]int32{{3, 7}}
	results := []*result{estimateResult(plan, exactU*(1+2/math.Sqrt(wl.SketchK)), "sketch")}
	items := referenceItems(results)
	answer(items, map[int32]float64{7: exactU})
	if fails := checkResults(results, items); len(fails) != 1 {
		t.Fatalf("sketch off by 2/sqrt(k): %v", fails)
	}
}

func TestRepeatCheckCatchesChangedBits(t *testing.T) {
	w := &wl.Workload{FixedArtifacts: true, Lists: [][]wl.Request{make([]wl.Request, 4)}}
	a := solveResult([][]int32{{3, 7}}, exactU)
	b := solveResult([][]int32{{3, 7}}, math.Nextafter(exactU, 0))
	a.body, b.body = []byte("same"), []byte("same")
	a.pos, b.pos = 0, 1
	fails, _ := repeatChecks(w, []*result{a, b}, t.TempDir()+"/store.json", 2)
	if len(fails) != 1 {
		t.Fatalf("identical requests with different bits: %v", fails)
	}
	// Where artifacts change under the workload, solves are not compared.
	w.FixedArtifacts = false
	if fails, _ := repeatChecks(w, []*result{a, b}, t.TempDir()+"/store.json", 2); len(fails) != 0 {
		t.Fatalf("lineage-dependent solve compared: %v", fails)
	}
}

func TestRepeatCheckAcrossRuns(t *testing.T) {
	w := &wl.Workload{FixedArtifacts: true, Lists: [][]wl.Request{make([]wl.Request, 4)}}
	store := t.TempDir() + "/store.json"
	a := solveResult([][]int32{{3, 7}}, exactU)
	a.body = []byte("req")
	if fails, _ := repeatChecks(w, []*result{a}, store, 1); len(fails) != 0 {
		t.Fatal(fails)
	}
	b := solveResult([][]int32{{3, 7}}, exactU)
	b.body = []byte("req")
	b.resp.Plan = [][]int32{{3, 9}}
	if fails, _ := repeatChecks(w, []*result{b}, store, 1); len(fails) != 1 {
		t.Fatalf("changed plan across runs: %v", fails)
	}
}

// The driver reports exactly the workloads and metrics BENCHMARK.json
// declares.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found:", err)
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(wl.Names) {
		t.Fatalf("BENCHMARK.json has %d workloads, wl %d", len(b.Workloads), len(wl.Names))
	}
	for i, w := range b.Workloads {
		if w.Name != wl.Names[i] || w.Why != wl.Why[w.Name] {
			t.Errorf("workload %d: BENCHMARK.json %q (%q), wl %q (%q)", i, w.Name, w.Why, wl.Names[i], wl.Why[wl.Names[i]])
		}
	}
	names := func(ms []struct{ Name string }) []string {
		var out []string
		for _, m := range ms {
			out = append(out, m.Name)
		}
		return out
	}
	if got := names(b.EndToEnd); !reflect.DeepEqual(got, endToEnd) {
		t.Errorf("end_to_end %v, driver %v", got, endToEnd)
	}
	if got := names(b.PerLayer); !reflect.DeepEqual(got, perLayer) {
		t.Errorf("per_layer %v, driver %v", got, perLayer)
	}
}

// Percentiles always use the workload's window count: a window too thin
// for its percentile fails the metric instead of merging windows.
func TestWindowedPercentileFixedCount(t *testing.T) {
	phase := 4 * time.Second
	var results []*result
	add := func(window, n int) {
		for i := 0; i < n; i++ {
			r := solveResult(nil, 1)
			r.done = time.Duration(window)*time.Second + time.Millisecond
			r.lat = time.Duration(i+1) * time.Millisecond
			results = append(results, r)
		}
	}
	for w := 0; w < 4; w++ {
		add(w, 200)
	}
	all := func(*result) bool { return true }
	if v, ok := windowedPercentile(results, phase, 4, all, 95); !ok || v != 190 {
		t.Fatalf("p95 over 4 windows of 1..200 ms = %v, %v; want 190", v, ok)
	}
	results = results[:len(results)-1] // the last window now has 199
	if _, ok := windowedPercentile(results, phase, 4, all, 95); ok {
		t.Fatal("p95 reported with a window of 199 samples")
	}
	if _, ok := windowedPercentile(results, phase, 1, all, 95); !ok {
		t.Fatal("p95 over one window of 799 samples not reported")
	}
}
