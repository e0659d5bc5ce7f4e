// Command driver is the end-to-end benchmark: it generates the graph
// inputs with oipa-gen, boots the real oipa-serve binary, drives it over
// TCP as a closed loop, checks every output against a verification
// server, and prints the metrics BENCHMARK.json declares as one JSON
// object on the last line. It talks to the binaries only through their
// command lines and HTTP JSON.
//
//	driver -workload warm_mix -seed 1 -seconds 25 -trace 0
//
// With -trace 1 it also runs the in-process traced replay (cmd traced)
// and prints the per-layer metrics instead of the end-to-end ones.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"oipa/perfbench/wl"
)

// endToEnd and perLayer name the metrics BENCHMARK.json declares; a run
// that cannot report every one of its set fails.
var (
	endToEnd = []string{"setup_s", "throughput_rps", "latency_p50_ms", "latency_p95_ms", "solve_p50_ms", "solve_p95_ms", "estimate_p50_ms", "estimate_p95_ms", "success_rate", "cpu_ms_per_req", "peak_rss_mb"}
	perLayer = []string{
		"graph.layout_build_ms",
		"graph.layout_hit_ratio",
		"traverse.nodes_per_sample",
		"rrset.sample_ms",
		"rrset.sample_ns_per_sample.single",
		"rrset.sample_ns_per_sample.multiplex",
		"rrset.samples_drawn",
		"rrset.sample_allocs_per_sample",
		"rrset.index_ms",
		"rrset.index_ns_per_sample",
		"rrset.sketch_ms",
		"rrset.estimate_exact_us_p50",
		"rrset.estimate_sketch_us_p50",
		"rrset.estimate_exact_calls",
		"rrset.estimate_sketch_calls",
		"rrset.sketch_rel_err_max",
		"core.solve_ms_p50.babp",
		"core.solve_ms_p50.bab",
		"core.solve_ms_p50.greedy",
		"core.nodes_per_solve",
		"core.bound_evals_per_solve",
		"core.tau_evals_per_solve",
		"core.sketch_evals_per_solve",
		"core.reverify_evals_per_solve",
		"core.ns_per_tau_eval",
		"core.solve_allocs_per_solve",
		"cascade.simulate_ms_p50",
		"cascade.ns_per_run",
		"serve.overhead_us_p50",
		"serve.registry.hits",
		"serve.registry.prefix_hits",
		"serve.registry.prepares",
		"serve.registry.extends",
		"serve.registry.shrinks",
		"serve.registry.evictions",
		"serve.registry.reprepares",
		"serve.registry.singleflight_waits",
		"serve.registry.resident_mb_peak",
		"serve.shed",
		"serve.coalesced",
		"serve.degraded",
		"bench.trace_overhead_pct",
		"bench.unattributed_pct",
	}
)

// setupRepeats is how many times a run boots and warms a server to
// measure setup_s; the last one serves the timed phase.
const setupRepeats = 5

func main() {
	var (
		workload = flag.String("workload", "", "workload name: "+strings.Join(wl.Names, ", "))
		seed     = flag.Uint64("seed", 1, "workload seed: the request lists derive from it")
		seconds  = flag.Int("seconds", 20, "timed-phase length")
		trace    = flag.Int("trace", 0, "1 = print per-layer metrics from a traced replay instead of end-to-end metrics")
		binDir   = flag.String("bin", ".bench_build/bin", "directory holding oipa-gen, oipa-serve and traced")
		workRoot = flag.String("work", ".bench_build/work", "scratch directory for generated inputs and logs")
	)
	flag.Parse()
	// The load generator collects garbage rarely, so its own pauses do
	// not land in the sub-millisecond latencies it measures.
	debug.SetGCPercent(400)
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		stopAll()
		os.Exit(1)
	}()
	code := run(*workload, *seed, *seconds, *trace == 1, *binDir, *workRoot)
	stopAll()
	os.Exit(code)
}

func fatalf(format string, args ...interface{}) int {
	fmt.Fprintf(os.Stderr, "driver: "+format+"\n", args...)
	return 1
}

func run(name string, seed uint64, seconds int, traced bool, binDir, workRoot string) int {
	w, err := wl.Generate(name, seed)
	if err != nil {
		return fatalf("%v", err)
	}
	if seconds < 1 {
		return fatalf("-seconds must be positive")
	}
	work := filepath.Join(workRoot, fmt.Sprintf("%s-%d-%d", name, seed, os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return fatalf("%v", err)
	}
	defer os.RemoveAll(work)

	loadBefore := loadAvg()
	nproc := runtime.NumCPU()
	gmp := os.Getenv("GOMAXPROCS")
	if gmp == "" {
		gmp = "unset (= nproc)"
	}
	fmt.Printf("host: nproc=%d GOMAXPROCS=%s go=%s loadavg_before=%s\n", nproc, gmp, runtime.Version(), loadBefore)
	fmt.Printf("workload %s seed %d: %d client(s), closed loop, %ds timed phase; why: %s\n", name, seed, w.Clients, seconds, w.Why)
	if w.Clients > nproc {
		fmt.Printf("WARNING: %d clients exceed nproc=%d; client and server contend for cores\n", w.Clients, nproc)
	}

	// Inputs: the dblp preset at n = 10k, m = 120k, plus a smaller dblp
	// layer for multiplex requests; fixed across seeds (see wl).
	base := filepath.Join(work, "base.graph")
	if err := gen(binDir, wl.BaseScale, wl.BaseGraphSeed, base); err != nil {
		return fatalf("oipa-gen: %v", err)
	}
	graphArgs := []string{"-graph", base}
	if w.Multiplex {
		layer := filepath.Join(work, "layer1.graph")
		if err := gen(binDir, wl.LayerScale, wl.LayerGraphSeed, layer); err != nil {
			return fatalf("oipa-gen: %v", err)
		}
		graphArgs = append(graphArgs, "-layer", layer)
	}
	serveArgs := append(append([]string{}, graphArgs...), w.Server.Flags()...)
	if w.RequestTimeout != "" {
		serveArgs = append(serveArgs, "-request-timeout", w.RequestTimeout)
	}

	// Set-up: exec → /readyz 200 → warm-up requests, repeated; the last
	// server stays up for the timed phase.
	repeats := setupRepeats
	if traced {
		repeats = 1
	}
	var (
		srv    *server
		setups []float64
	)
	hc := newHTTPClient()
	for i := 0; i < repeats; i++ {
		if srv != nil {
			srv.stop()
		}
		start := time.Now()
		srv, err = startServer(binDir, serveArgs, filepath.Join(work, fmt.Sprintf("serve-%d.log", i)))
		if err != nil {
			return fatalf("%v", err)
		}
		if err := runSequential(hc, srv.base, w.Warmup); err != nil {
			return fatalf("warm-up: %v", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	// Timed phase.
	before, err := metricsSnapshot(hc, srv.base)
	if err != nil {
		return fatalf("/metrics: %v", err)
	}
	ticks0, err := cpuTicks(srv.pid())
	if err != nil {
		return fatalf("%v", err)
	}
	var (
		residentPeak float64
		pollStop     = make(chan struct{})
		pollWG       sync.WaitGroup
	)
	if traced {
		pollWG.Add(1)
		go func() {
			defer pollWG.Done()
			t := time.NewTicker(200 * time.Millisecond)
			defer t.Stop()
			for {
				select {
				case <-pollStop:
					return
				case <-t.C:
					if m, err := metricsSnapshot(hc, srv.base); err == nil {
						residentPeak = math.Max(residentPeak, m["registry.resident_bytes"])
					}
				}
			}
		}()
	}
	// CPU ticks at every window boundary.
	phase := time.Duration(seconds) * time.Second
	windows := w.Windows
	ticks := []int64{ticks0}
	pollWG.Add(1)
	go func() {
		defer pollWG.Done()
		t := time.NewTicker(phase / time.Duration(windows))
		defer t.Stop()
		for len(ticks) < windows {
			select {
			case <-pollStop:
				return
			case <-t.C:
				if v, err := cpuTicks(srv.pid()); err == nil {
					ticks = append(ticks, v)
				}
			}
		}
	}()
	results, exhausted := closedLoop(srv.base, w, phase)
	close(pollStop)
	pollWG.Wait()
	ticks1, err := cpuTicks(srv.pid())
	if err != nil {
		return fatalf("%v", err)
	}
	ticks = append(ticks, ticks1)
	after, err := metricsSnapshot(hc, srv.base)
	if err != nil {
		return fatalf("/metrics: %v", err)
	}
	residentPeak = math.Max(residentPeak, after["registry.resident_bytes"])
	rss, err := peakRSSMB(srv.pid())
	if err != nil {
		return fatalf("%v", err)
	}
	srv.stop()
	if exhausted {
		fmt.Println("WARNING: a request list ran out before the timed phase ended; later runs send fewer requests")
	}

	// Output checks, outside the timing.
	verifyArgs := append(append(append([]string{}, graphArgs...), w.Server.ModelFlags()...), "-request-timeout", "120s")
	fails, err := verify(binDir, verifyArgs, filepath.Join(work, "verify.log"), results)
	if err != nil {
		return fatalf("%v", err)
	}
	store := filepath.Join(workRoot, "..", "outputs", fmt.Sprintf("%s-%d-%s.json", name, seed, binaryHash(binDir)))
	// Best effort: without the store only the cross-run comparison is skipped.
	_ = os.MkdirAll(filepath.Dir(store), 0o755)
	rfails, digest := repeatChecks(w, results, store, 100)
	fails = append(fails, rfails...)

	s := summarize(w, results, fails)
	rates, completed := windowRates(results, phase, windows)
	var cpuPerReq []float64
	if len(ticks) == windows+1 {
		for i := 0; i < windows; i++ {
			if completed[i] > 0 {
				cpuPerReq = append(cpuPerReq, float64(ticks[i+1]-ticks[i])*1000/clockTick/float64(completed[i]))
			}
		}
	} else if s.completed > 0 {
		cpuPerReq = []float64{float64(ticks1-ticks0) * 1000 / clockTick / float64(s.completed)}
	}
	fmt.Printf("per %v window: throughput %s req/s; server CPU %s ms/req\n", phase/time.Duration(windows), fmtFloats(rates), fmtFloats(cpuPerReq))
	s.print(before, after)
	fmt.Printf("output digest %s seed %d: %s\n", name, seed, digest)
	for i, f := range fails {
		if i == 20 {
			fmt.Printf("CHECK FAILED: ... %d more\n", len(fails)-20)
			break
		}
		fmt.Printf("CHECK FAILED: %s\n", f)
	}
	fmt.Printf("host: loadavg_after=%s\n", loadAvg())

	metrics := map[string]metric{}
	missing := false
	if !traced {
		put := func(name, unit string, v float64, ok bool) {
			if !ok {
				fmt.Printf("WARNING: %s not reported: a window has fewer than %d samples beyond it\n", name, wl.MinBeyond)
				missing = true
				return
			}
			metrics[name] = metric{Value: v, Unit: unit}
		}
		put("setup_s", "s", median(setups), true)
		put("throughput_rps", "1/s", median(rates), s.succeeded > 0)
		for _, c := range []struct {
			name string
			keep func(*result) bool
		}{
			{"latency", func(*result) bool { return true }},
			{"solve", func(r *result) bool { return r.req.Kind == wl.Solve }},
			{"estimate", func(r *result) bool { return r.req.Kind == wl.Estimate }},
		} {
			for _, p := range []float64{50, 95} {
				v, ok := windowedPercentile(results, phase, windows, c.keep, p)
				fmt.Printf("%s p%.0f: %.4f ms (median over %d windows)\n", c.name, p, v, windows)
				put(fmt.Sprintf("%s_p%.0f_ms", c.name, p), "ms", v, ok)
			}
		}
		put("success_rate", "fraction", 1-float64(s.failed)/float64(s.attempted), s.attempted > 0)
		put("cpu_ms_per_req", "ms", median(cpuPerReq), len(cpuPerReq) > 0)
		put("peak_rss_mb", "MB", rss, true)
		fmt.Printf("setup_s: %v (median of %d)\n", setups, len(setups))
		fmt.Printf("error_rate: %d / %d attempted\n", s.failed, s.attempted)
	} else {
		delta := map[string]float64{}
		for _, c := range replayCounters {
			delta[c[1]] = after[c[1]] - before[c[1]]
		}
		layer, err := tracedRun(binDir, w, seed, graphArgs, results, delta, seconds, work)
		if err != nil {
			return fatalf("traced replay: %v", err)
		}
		for k, v := range layer {
			metrics[k] = v
		}
		for k, v := range serveLayer(results, before, after, residentPeak) {
			metrics[k] = v
		}
		keys := make([]string, 0, len(metrics))
		for k := range metrics {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Printf("  %-40s %14.6g %s\n", k, metrics[k].Value, metrics[k].Unit)
		}
	}

	want := endToEnd
	if traced {
		want = perLayer
	}
	for _, k := range want {
		if _, ok := metrics[k]; !ok {
			fmt.Printf("WARNING: metric %s not reported\n", k)
			missing = true
		}
	}
	if len(metrics) != len(want) {
		fmt.Printf("WARNING: %d metrics reported, BENCHMARK.json declares %d\n", len(metrics), len(want))
		missing = true
	}

	out, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(fails) == 0, s.attempted, s.failed, metrics})
	fmt.Println(string(out))
	if len(fails) > 0 || missing {
		return 1
	}
	return 0
}

type metric = wl.Metric

func gen(binDir string, scale float64, seed uint64, out string) error {
	cmd := exec.Command(filepath.Join(binDir, "oipa-gen"), "-preset", "dblp",
		"-scale", strconv.FormatFloat(scale, 'g', -1, 64), "-seed", strconv.FormatUint(seed, 10), "-out", out)
	cmd.Stderr = os.Stderr
	return runProc(cmd)
}

func loadAvg() string {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return "unknown"
	}
	f := strings.Fields(string(b))
	if len(f) < 3 {
		return "unknown"
	}
	return strings.Join(f[:3], "/")
}

// binaryHash identifies the oipa-serve build, so stored outputs are
// only compared between runs of the same program.
func binaryHash(binDir string) string {
	b, err := os.ReadFile(filepath.Join(binDir, "oipa-serve"))
	if err != nil {
		return "unknown"
	}
	sum := sha256.Sum256(b)
	return fmt.Sprintf("%x", sum[:8])
}

func median(xs []float64) float64 {
	ys := append([]float64(nil), xs...)
	sort.Float64s(ys)
	n := len(ys)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return ys[n/2]
	}
	return (ys[n/2-1] + ys[n/2]) / 2
}

// summary aggregates the timed phase.
type summary struct {
	attempted, completed, succeeded, failed int
	kinds, modes                            map[string]int
	stats, firstPass                        map[string]int64
	firstPassDone                           bool
	simRuns                                 int
}

func summarize(w *wl.Workload, results []*result, fails []string) *summary {
	s := &summary{kinds: map[string]int{}, modes: map[string]int{}, stats: map[string]int64{}, firstPass: map[string]int64{}}
	reached := make([]int, len(w.Lists))
	for _, r := range results {
		s.attempted++
		if r.body != nil && r.err == nil {
			s.completed++
		}
		if !r.ok() {
			if s.failed++; s.failed <= 20 {
				fmt.Printf("request failed: client %d position %d %s: status %d degraded=%v err=%v\n", r.client, r.pos, r.req.Kind, r.status, r.resp.Degraded, r.err)
			}
			continue
		}
		s.succeeded++
		s.kinds[r.req.Kind]++
		switch r.req.Kind {
		case wl.Solve:
			for k, v := range r.resp.Stats {
				s.stats[k] += v
				if r.pos < len(w.Lists[r.client]) {
					s.firstPass[k] += v
				}
			}
		case wl.Estimate:
			s.modes[r.resp.EstimateMode]++
		case wl.Simulate:
			s.simRuns += r.resp.Runs
		}
		if r.pos < len(w.Lists[r.client]) {
			reached[r.client]++
		}
	}
	// A failed output check fails its request.
	s.failed += len(fails)
	if s.failed > s.attempted {
		s.failed = s.attempted
	}
	s.firstPassDone = w.Cycle
	for cl, n := range reached {
		if n < len(w.Lists[cl]) {
			s.firstPassDone = false
		}
	}
	return s
}

// workCounters are the /metrics counters printed as timed-phase deltas.
var workCounters = []string{
	"registry.instance_hits", "registry.prefix_hits", "registry.instance_misses", "registry.prepares",
	"registry.extends", "registry.shrinks", "registry.instance_evictions", "registry.reprepares",
	"registry.singleflight_waits", "registry.layout_hits", "registry.layout_misses",
	"server.sketch_estimates", "server.sketch_fallbacks", "server.shed_total", "server.degraded_solves",
	"solves.coalesced_solves", "solver.nodes", "solver.bound_evals", "solver.tau_evals",
	"solver.sketch_evals", "solver.reverify_evals",
}

// print writes the work counts that sit next to the times: a latency
// reads as work × unit cost.
func (s *summary) print(before, after map[string]float64) {
	fmt.Printf("requests: attempted=%d completed=%d succeeded=%d failed=%d by kind=%v estimate modes=%v simulate runs=%d\n",
		s.attempted, s.completed, s.succeeded, s.failed, s.kinds, s.modes, s.simRuns)
	fmt.Printf("solver stats summed over the timed phase (vary with how far the clients got): %s\n", fmtCounts(s.stats))
	if s.firstPassDone {
		fmt.Printf("solver stats over the first pass of every list (repeat exactly across runs of one seed): %s\n", fmtCounts(s.firstPass))
	}
	var parts []string
	for _, k := range workCounters {
		parts = append(parts, fmt.Sprintf("%s=%.0f", k, after[k]-before[k]))
	}
	fmt.Printf("/metrics deltas over the timed phase (registry outcomes depend on client interleaving): %s\n", strings.Join(parts, " "))
}

func fmtCounts(m map[string]int64) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var parts []string
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s=%d", k, m[k]))
	}
	return strings.Join(parts, " ")
}

// serveLayer derives the serve.* per-layer metrics from the live run.
func serveLayer(results []*result, before, after map[string]float64, residentPeak float64) map[string]metric {
	var over []float64
	for _, r := range results {
		if r.ok() && r.req.Kind == wl.Solve {
			ms := float64(r.lat)/float64(time.Millisecond) - r.resp.SampleMS - r.resp.IndexMS - r.resp.SolveMS
			over = append(over, ms*1000)
		}
	}
	p50, _ := wl.Percentile(over, 50)
	out := map[string]metric{"serve.overhead_us_p50": {Value: p50, Unit: "us"}}
	delta := func(k string) float64 { return after[k] - before[k] }
	for name, key := range map[string]string{
		"hits": "registry.instance_hits", "prefix_hits": "registry.prefix_hits", "prepares": "registry.prepares",
		"extends": "registry.extends", "shrinks": "registry.shrinks", "evictions": "registry.instance_evictions",
		"reprepares": "registry.reprepares", "singleflight_waits": "registry.singleflight_waits",
	} {
		out["serve.registry."+name] = metric{Value: delta(key), Unit: "count"}
	}
	out["serve.registry.resident_mb_peak"] = metric{Value: residentPeak / (1 << 20), Unit: "MB"}
	out["serve.shed"] = metric{Value: delta("server.shed_total"), Unit: "count"}
	out["serve.coalesced"] = metric{Value: delta("solves.coalesced_solves"), Unit: "count"}
	out["serve.degraded"] = metric{Value: delta("server.degraded_solves"), Unit: "count"}
	return out
}
