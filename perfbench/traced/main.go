// Command traced replays a benchmark run's requests in process, in the
// order the live run completed them, and attributes their time to the
// layers: every call into graph, rrset, core and cascade runs inside a
// span (name, start, end, parent, request id, allocations), kept in
// memory and written out at the end. It prints the per-layer metrics as
// JSON.
//
//	traced -workload cold_growth -seed 1 -graph base.graph -layer layer1.graph \
//	    -order order.json -spans 1 -out result.json
//
// With -spans 0 it replays the same requests without spans or
// allocation counts; the driver compares the two wall times to report
// the tracing overhead.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"oipa/perfbench/wl"
)

// tracer records spans. Disabled, every method is a no-op.
type tracer struct {
	on      bool
	t0      time.Time
	spans   []wl.Span
	mallocs []uint64 // per open span: Mallocs at begin
	stack   []int
	req     int
	ms      runtime.MemStats
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span under the innermost open one.
func (t *tracer) begin(name string) int {
	if !t.on {
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	i := len(t.spans)
	t.spans = append(t.spans, wl.Span{Name: name, Parent: parent, Req: t.req})
	t.stack = append(t.stack, i)
	if parent >= 0 {
		// Layer calls count allocations; a request's root does not.
		runtime.ReadMemStats(&t.ms)
		t.mallocs = append(t.mallocs, t.ms.Mallocs)
	} else {
		t.mallocs = append(t.mallocs, 0)
	}
	t.spans[i].Start = t.now()
	return i
}

// end closes span i, recording its work counts.
func (t *tracer) end(i int, count, work int64) {
	if !t.on {
		return
	}
	s := &t.spans[i]
	s.End = t.now()
	s.Count, s.Work = count, work
	n := len(t.stack) - 1
	if s.Parent >= 0 {
		runtime.ReadMemStats(&t.ms)
		s.Allocs = t.ms.Mallocs - t.mallocs[n]
	}
	t.stack, t.mallocs = t.stack[:n], t.mallocs[:n]
}

func (t *tracer) rename(i int, name string) {
	if t.on {
		t.spans[i].Name = name
	}
}

func main() {
	var (
		workload = flag.String("workload", "", "workload name")
		seed     = flag.Uint64("seed", 1, "workload seed")
		base     = flag.String("graph", "", "base graph file")
		layer    = flag.String("layer", "", "second multiplex layer graph file (optional)")
		order    = flag.String("order", "", "JSON list of [client, position] pairs: the timed requests to replay, in order")
		spans    = flag.Bool("spans", true, "record spans and allocation counts")
		limit    = flag.Int("limit", 0, "replay at most this many timed requests (0 = all)")
		maxSec   = flag.Float64("max-seconds", 0, "stop replaying timed requests after this long (0 = no limit)")
		out      = flag.String("out", "", "result JSON file")
		spanOut  = flag.String("span-out", "", "write the recorded spans here as JSON lines (optional)")
	)
	flag.Parse()
	if err := run(*workload, *seed, *base, *layer, *order, *spans, *limit, *maxSec, *out, *spanOut); err != nil {
		fmt.Fprintln(os.Stderr, "traced:", err)
		os.Exit(1)
	}
}

// replayResult is what the driver reads back.
type replayResult struct {
	Replayed int                  `json:"replayed"`
	TimedNS  int64                `json:"timed_ns"`
	Metrics  map[string]wl.Metric `json:"metrics,omitempty"`
	Outputs  []string             `json:"outputs"`
	Counts   counts               `json:"counts"`
}

func run(name string, seed uint64, base, layer, orderPath string, spansOn bool, limit int, maxSec float64, outPath, spanOut string) error {
	w, err := wl.Generate(name, seed)
	if err != nil {
		return err
	}
	var order [][2]int
	b, err := os.ReadFile(orderPath)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, &order); err != nil {
		return err
	}
	if limit > 0 && limit < len(order) {
		order = order[:limit]
	}
	var layers []string
	if layer != "" {
		layers = []string{layer}
	}
	tr := &tracer{on: spansOn, t0: time.Now()}
	e, err := newEngine(tr, base, layers, w.Server)
	if err != nil {
		return err
	}

	// Set-up: the warm-up requests, traced like the rest but outside
	// the timed phase.
	tr.req = -1
	for i := range w.Warmup {
		root := tr.begin("request")
		_, err := e.do(&w.Warmup[i], w.Warmup[i].Plan)
		tr.end(root, 0, 0)
		if err != nil {
			return fmt.Errorf("warm-up %d: %w", i, err)
		}
	}
	runtime.GC()
	e.counts = counts{}

	timedFrom := len(tr.spans)
	plans := make([]map[int][][]int32, len(w.Lists))
	for i := range plans {
		plans[i] = map[int][][]int32{}
	}
	res := replayResult{}
	var (
		sketchErrMax float64
		solves       []outcome
	)
	start := time.Now()
	for n, cp := range order {
		if maxSec > 0 && time.Since(start).Seconds() > maxSec {
			break
		}
		cl, pos := cp[0], cp[1]
		list := w.Lists[cl]
		r := &list[pos%len(list)]
		plan := r.Plan
		if r.PlanFrom >= 0 {
			p, ok := plans[cl][r.PlanFrom]
			if !ok {
				return fmt.Errorf("request %d cites solve %d, which has not run", n, r.PlanFrom)
			}
			plan = p
		}
		tr.req = n
		root := tr.begin("request")
		o, err := e.do(r, plan)
		tr.end(root, 0, 0)
		if err != nil {
			return fmt.Errorf("client %d position %d %s: %w", cl, pos, r.Kind, err)
		}
		if r.Kind == wl.Solve {
			plans[cl][pos%len(list)] = o.Plan
			solves = append(solves, o)
		}
		if spansOn && o.Mode == "sketch" {
			ex, err := e.exact(r, plan)
			if err != nil {
				return err
			}
			sketchErrMax = math.Max(sketchErrMax, wl.RelErr(o.Utility, ex))
		}
		pj, _ := json.Marshal(o.Plan)
		res.Outputs = append(res.Outputs, fmt.Sprintf("u=%016x up=%016x plan=%s", math.Float64bits(o.Utility), math.Float64bits(o.Upper), pj))
		res.Replayed++
	}
	res.TimedNS = int64(time.Since(start))
	res.Counts = e.counts
	if spansOn {
		res.Metrics = layerMetrics(tr.spans, timedFrom, solves, sketchErrMax)
		if spanOut != "" {
			if err := writeSpans(spanOut, tr.spans); err != nil {
				return err
			}
		}
	}
	b, err = json.Marshal(res)
	if err != nil {
		return err
	}
	return os.WriteFile(outPath, b, 0o644)
}

func writeSpans(path string, spans []wl.Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// agg sums the spans of one name.
type agg struct {
	n           int
	ns, self    int64
	count, work int64
	allocs      uint64
	durs        []float64 // ms
}

func layerMetrics(spans []wl.Span, timedFrom int, solves []outcome, sketchErrMax float64) map[string]wl.Metric {
	self := wl.SelfTimes(spans)
	all, timed := map[string]*agg{}, map[string]*agg{}
	for i, s := range spans {
		for _, m := range []map[string]*agg{all, timed} {
			a := m[s.Name]
			if a == nil {
				a = &agg{}
				m[s.Name] = a
			}
			a.n++
			a.ns += s.End - s.Start
			a.self += self[i]
			a.count += s.Count
			a.work += s.Work
			a.allocs += s.Allocs
			a.durs = append(a.durs, float64(s.End-s.Start)/1e6)
			if i < timedFrom {
				break // set-up spans count only in "all"
			}
		}
	}
	get := func(m map[string]*agg, name string) *agg {
		if a := m[name]; a != nil {
			return a
		}
		return &agg{}
	}
	sum := func(m map[string]*agg, prefix string) *agg {
		out := &agg{}
		for k, a := range m {
			if strings.HasPrefix(k, prefix) {
				out.n += a.n
				out.ns += a.ns
				out.self += a.self
				out.count += a.count
				out.work += a.work
				out.allocs += a.allocs
				out.durs = append(out.durs, a.durs...)
			}
		}
		return out
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	p50 := func(xs []float64) float64 {
		v, _ := wl.Percentile(xs, 50)
		return v
	}
	m := map[string]wl.Metric{}
	put := func(name string, v float64, unit string) { m[name] = wl.Metric{Value: v, Unit: unit} }

	lay := get(timed, "graph.layout")
	var buildNS int64
	for i := timedFrom; i < len(spans); i++ {
		if spans[i].Name == "graph.layout" && spans[i].Count > 0 {
			buildNS += spans[i].End - spans[i].Start
		}
	}
	put("graph.layout_build_ms", float64(buildNS)/1e6, "ms")
	put("graph.layout_hit_ratio", ratio(float64(lay.work-lay.count), float64(lay.work)), "fraction")

	sampAll, sampTimed := sum(all, "rrset.sample."), sum(timed, "rrset.sample.")
	single, multi := get(all, "rrset.sample.single"), get(all, "rrset.sample.multiplex")
	put("traverse.nodes_per_sample", ratio(float64(sampAll.work), float64(sampAll.count)), "count")
	put("rrset.sample_ms", float64(sampTimed.ns)/1e6, "ms")
	put("rrset.sample_ns_per_sample.single", ratio(float64(single.ns), float64(single.count)), "ns")
	put("rrset.sample_ns_per_sample.multiplex", ratio(float64(multi.ns), float64(multi.count)), "ns")
	put("rrset.samples_drawn", float64(sampTimed.count), "count")
	put("rrset.sample_allocs_per_sample", ratio(float64(sampAll.allocs), float64(sampAll.count)), "count")

	ixAll := get(all, "rrset.index")
	put("rrset.index_ms", float64(get(timed, "rrset.index").ns)/1e6, "ms")
	put("rrset.index_ns_per_sample", ratio(float64(ixAll.ns), float64(ixAll.count)), "ns")
	put("rrset.sketch_ms", float64(get(timed, "rrset.sketch").ns)/1e6, "ms")

	ex, sk := get(timed, "rrset.estimate.exact"), get(timed, "rrset.estimate.sketch")
	put("rrset.estimate_exact_us_p50", p50(ex.durs)*1000, "us")
	put("rrset.estimate_sketch_us_p50", p50(sk.durs)*1000, "us")
	put("rrset.estimate_exact_calls", float64(ex.n), "count")
	put("rrset.estimate_sketch_calls", float64(sk.n), "count")
	put("rrset.sketch_rel_err_max", sketchErrMax, "fraction")

	for _, meth := range []string{"babp", "bab", "greedy"} {
		put("core.solve_ms_p50."+meth, p50(get(timed, "core.solve."+meth).durs), "ms")
	}
	sol := sum(timed, "core.solve.")
	var st solveStats
	for _, o := range solves {
		st.Nodes += o.Stats.Nodes
		st.BoundEvals += o.Stats.BoundEvals
		st.TauEvals += o.Stats.TauEvals
		st.SketchEvals += o.Stats.SketchEvals
		st.ReVerifyEvals += o.Stats.ReVerifyEvals
	}
	ns := float64(len(solves))
	put("core.nodes_per_solve", ratio(float64(st.Nodes), ns), "count")
	put("core.bound_evals_per_solve", ratio(float64(st.BoundEvals), ns), "count")
	put("core.tau_evals_per_solve", ratio(float64(st.TauEvals), ns), "count")
	put("core.sketch_evals_per_solve", ratio(float64(st.SketchEvals), ns), "count")
	put("core.reverify_evals_per_solve", ratio(float64(st.ReVerifyEvals), ns), "count")
	put("core.ns_per_tau_eval", ratio(float64(sol.ns), float64(sol.work)), "ns")
	put("core.solve_allocs_per_solve", ratio(float64(sol.allocs), float64(sol.n)), "count")

	sim := get(timed, "cascade.simulate")
	put("cascade.simulate_ms_p50", p50(sim.durs), "ms")
	put("cascade.ns_per_run", ratio(float64(sim.ns), float64(sim.count)), "ns")

	root := get(timed, "request")
	put("bench.unattributed_pct", ratio(float64(root.self), float64(root.ns))*100, "%")
	fmt.Fprintf(os.Stderr, "replayed %d timed requests; unattributed %.3fms of %.3fms request time\n", root.n, float64(root.self)/1e6, float64(root.ns)/1e6)

	// Self time per layer, for the report.
	names := make([]string, 0, len(timed))
	for k := range timed {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		a := timed[k]
		fmt.Fprintf(os.Stderr, "span %-32s n=%-7d total=%10.3fms self=%10.3fms allocs=%d\n", k, a.n, float64(a.ns)/1e6, float64(a.self)/1e6, a.allocs)
	}
	return m
}
