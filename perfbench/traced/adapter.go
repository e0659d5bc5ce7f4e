package main

// adapter.go is the only file of the benchmark that imports
// oipa/internal. It answers the benchmark's requests in process the way
// oipa-serve does — the same defaults, layouts, sampling, index,
// sketches, solvers and estimators — but calls each layer's public
// functions itself, so the replay can open a span around every call. An
// API change inside oipa changes this file and nothing else.

import (
	"encoding/json"
	"fmt"
	"sort"

	"oipa/internal/cascade"
	"oipa/internal/core"
	"oipa/internal/gen"
	"oipa/internal/graph"
	"oipa/internal/logistic"
	"oipa/internal/rrset"
	"oipa/internal/topic"
	"oipa/perfbench/wl"
)

// sketchGate is oipa-serve's sketch rule, which no flag sets: sketch
// estimates and sketch-routed solve evaluations need θ >= sketchGate·k.
const sketchGate = 8

// outcome is one request's answer plus the solver's work counts.
type outcome struct {
	Utility, Upper float64
	Plan           [][]int32
	Mode           string // estimate: "sketch" or "exact"
	Stats          solveStats
}

type solveStats struct {
	Nodes, BoundEvals, TauEvals, SketchEvals, ReVerifyEvals int64
}

// snapshot is what a request reads, like serve.Artifact: growth and
// shrinks publish a new one and never change one a request holds.
type snapshot struct {
	inst  *core.Instance
	evals *core.EvaluatorPool
	est   *rrset.AUEstimator
}

// artifact mirrors a registry entry: one growing instance per
// (campaign, layer set), prefixes for smaller θ, plus the governor's
// bookkeeping (request clock of the last use, largest θ requested in
// the current and previous recency epoch, accounted bytes).
type artifact struct {
	*snapshot
	key             string
	mux             bool
	lastUse         int64
	curMax, prevMax int
	bytes           int64
}

// counts are the registry transitions the replay made; the driver
// compares them with the live server's /metrics deltas.
type counts struct {
	Prepares  int64 `json:"prepares"`
	Extends   int64 `json:"extends"`
	Shrinks   int64 `json:"shrinks"`
	Evictions int64 `json:"evictions"`
}

type engine struct {
	tr      *tracer
	g       *graph.Graph
	mx      *graph.Multiplex
	pool    []int32
	model   logistic.Model
	layouts *graph.LayoutCache
	cfg     wl.Server
	camps   map[*wl.Campaign]topic.Campaign
	arts    map[string]*artifact
	// The memory governor's state, as serve.Registry keeps it.
	clock, epochClock, resident int64
	counts                      counts
}

// newEngine loads the inputs and configures the engine as oipa-serve
// is configured from cfg.
func newEngine(tr *tracer, base string, layers []string, cfg wl.Server) (*engine, error) {
	g, err := graph.Load(base)
	if err != nil {
		return nil, err
	}
	pool, err := gen.PromoterPool(g, cfg.PoolFraction, uint64(cfg.PoolSeed))
	if err != nil {
		return nil, err
	}
	e := &engine{tr: tr, g: g, pool: pool, model: logistic.Model{Alpha: 1 / cfg.Ratio, Beta: 1},
		cfg: cfg, camps: map[*wl.Campaign]topic.Campaign{}, arts: map[string]*artifact{}}
	layoutCap := cfg.Layouts
	e.layouts = graph.NewLayoutCache(g, layoutCap)
	if len(layers) > 0 {
		all := []graph.MultiplexLayer{{G: g}}
		for _, p := range layers {
			lg, err := graph.Load(p)
			if err != nil {
				return nil, err
			}
			all = append(all, graph.MultiplexLayer{G: lg})
		}
		if e.mx, err = graph.NewMultiplex(g.N(), all, layoutCap); err != nil {
			return nil, err
		}
	}
	return e, nil
}

func (e *engine) modelFor(r *wl.Request) logistic.Model {
	m := e.model
	if r.Alpha != 0 {
		m.Alpha, m.Beta = r.Alpha, r.Beta
	}
	return m
}

// campaign converts a request's campaign through the server's own JSON
// decoding (which normalizes distributions), once per campaign.
func (e *engine) campaign(c *wl.Campaign) (topic.Campaign, error) {
	if tc, ok := e.camps[c]; ok {
		return tc, nil
	}
	b, err := json.Marshal(c)
	if err != nil {
		return topic.Campaign{}, err
	}
	var tc topic.Campaign
	if err := json.Unmarshal(b, &tc); err != nil {
		return tc, err
	}
	e.camps[c] = tc
	return tc, nil
}

// useMux reports whether layers selects the multiplex (any set beyond
// the base graph alone; the workloads only select all layers).
func (e *engine) useMux(layers []int) (bool, error) {
	if len(layers) == 0 || (len(layers) == 1 && layers[0] == 0) {
		return false, nil
	}
	if e.mx == nil || len(layers) != e.mx.L() {
		return false, fmt.Errorf("layer set %v: only the full multiplex is supported", layers)
	}
	return true, nil
}

// instance returns the artifact's instance bounded to theta, preparing
// or growing the artifact first and then running the memory governor,
// like serve.Registry.InstanceLayers.
func (e *engine) instance(c *wl.Campaign, layers []int, theta int) (*snapshot, *core.Instance, error) {
	tc, err := e.campaign(c)
	if err != nil {
		return nil, nil, err
	}
	mux, err := e.useMux(layers)
	if err != nil {
		return nil, nil, err
	}
	// Keyed like serve.Registry: piece distributions and layer set, not
	// names.
	dists := make([]topic.Vector, len(tc.Pieces))
	for j, p := range tc.Pieces {
		dists[j] = p.Dist
	}
	key, _ := json.Marshal(struct {
		D []topic.Vector
		M bool
	}{dists, mux})
	e.clock++
	a := e.arts[string(key)]
	switch {
	case a == nil:
		for len(e.arts) >= e.cfg.Instances && e.evictColdest(func(*artifact) bool { return true }) {
		}
		if a, err = e.prepare(tc, mux, theta); err != nil {
			return nil, nil, err
		}
		a.key, a.lastUse, a.curMax = string(key), e.clock, theta
		e.arts[a.key] = a
		e.counts.Prepares++
		e.account(a)
	default:
		a.lastUse = e.clock
		a.curMax = max(a.curMax, theta)
		if theta > a.inst.Theta() {
			if err := e.grow(a, theta); err != nil {
				return nil, nil, err
			}
			e.counts.Extends++
			e.account(a)
		}
	}
	// The request holds its snapshot, so a shrink or eviction the
	// governor makes on the way out does not touch it.
	snap := a.snapshot
	if err := e.reclaim(); err != nil {
		return nil, nil, err
	}
	if theta == snap.inst.Theta() {
		return snap, snap.inst, nil
	}
	inst, err := snap.inst.Prefix(theta)
	return snap, inst, err
}

// account books the artifact's current bytes into the resident total.
func (e *engine) account(a *artifact) {
	b := a.inst.MemUsage()
	e.resident += b - a.bytes
	a.bytes = b
}

// reclaim is serve.Registry's pressure policy over the budget: rotate
// the recency epoch every MemEpoch requests, shrink grown artifacts to
// the largest θ requested of them within the window (coldest first),
// then evict artifacts untouched for a whole window. The registry
// skips an artifact whose shrink fails; the replay fails instead, since
// its per-layer figures would then leave the shrink out.
func (e *engine) reclaim() error {
	budget, window := int64(e.cfg.MemBudget), int64(e.cfg.MemEpoch)
	if budget <= 0 || e.resident <= budget {
		return nil
	}
	rotate := e.clock-e.epochClock >= window
	if rotate {
		e.epochClock = e.clock
	}
	type candidate struct {
		a      *artifact
		target int
	}
	var cands []candidate
	for _, a := range e.arts {
		target := max(a.curMax, a.prevMax)
		if rotate {
			a.prevMax, a.curMax = a.curMax, 0
		}
		if target > 0 && a.inst.Theta() > target {
			cands = append(cands, candidate{a, target})
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].a.lastUse < cands[j].a.lastUse })
	for _, c := range cands {
		if e.resident <= budget {
			return nil
		}
		if err := e.shrink(c.a, max(c.target, c.a.curMax, c.a.prevMax)); err != nil {
			return err
		}
	}
	for e.resident > budget && e.evictColdest(func(a *artifact) bool { return a.lastUse <= e.clock-window }) {
	}
	return nil
}

// evictColdest drops the least recently used artifact eligible allows.
func (e *engine) evictColdest(eligible func(*artifact) bool) bool {
	var old *artifact
	for _, a := range e.arts {
		if eligible(a) && (old == nil || a.lastUse < old.lastUse) {
			old = a
		}
	}
	if old == nil {
		return false
	}
	delete(e.arts, old.key)
	e.resident -= old.bytes
	e.counts.Evictions++
	return true
}

// shrink re-materializes the artifact at target θ like
// core.Instance.ShrinkTo — compact the samples, rebuild the index,
// re-attach the sketches — with a span around each step.
func (e *engine) shrink(a *artifact, target int) error {
	if a.inst.Theta() <= target {
		return nil
	}
	sp := e.tr.begin("rrset.shrink")
	mrr, err := a.inst.MRR.ShrinkTo(target)
	e.tr.end(sp, int64(a.inst.Theta()-target), 0)
	if err != nil {
		return err
	}
	ix, err := e.index(mrr)
	if err != nil {
		return err
	}
	inst := *a.inst
	inst.MRR, inst.Index = mrr, ix
	a.snapshot = &snapshot{&inst, core.NewEvaluatorPool(&inst), ix.MRR().NewEstimator()}
	e.counts.Shrinks++
	e.account(a)
	return nil
}

// index builds mrr's inverted index over the pool and attaches the
// sketches, with a span around each.
func (e *engine) index(mrr *rrset.MRRCollection) (*rrset.Index, error) {
	sp := e.tr.begin("rrset.index")
	ix, err := mrr.BuildIndex(e.pool)
	e.tr.end(sp, int64(mrr.Theta()), 0)
	if err != nil {
		return nil, err
	}
	if e.cfg.SketchK > 0 {
		sp := e.tr.begin("rrset.sketch")
		err := ix.AttachSketches(e.cfg.SketchK)
		e.tr.end(sp, int64(mrr.Theta()), 0)
		if err != nil {
			return nil, err
		}
	}
	return ix, nil
}

// layoutsFor resolves one piece's layouts, as a graph span whose Count
// is the layouts built (cache misses) and Work the lookups.
func (e *engine) layoutsFor(t topic.Vector, mux bool) (single *graph.PieceLayout, layers []*graph.PieceLayout, err error) {
	sp := e.tr.begin("graph.layout")
	var h0, m0, h1, m1 int64
	if mux {
		h0, m0 = e.mx.LayoutCacheStats()
		layers, err = e.mx.Layouts(t)
		h1, m1 = e.mx.LayoutCacheStats()
	} else {
		h0, m0 = e.layouts.Stats()
		single, err = e.layouts.Get(t)
		h1, m1 = e.layouts.Stats()
	}
	e.tr.end(sp, m1-m0, (h1-h0)+(m1-m0))
	return single, layers, err
}

func (e *engine) prepare(tc topic.Campaign, mux bool, theta int) (*artifact, error) {
	l := tc.L()
	prob := &core.Problem{Campaign: tc, Pool: e.pool, K: 1, Model: e.model}
	inst := &core.Instance{Problem: prob}
	var (
		mrr *rrset.MRRCollection
		err error
	)
	if mux {
		prob.Mux = e.mx
		inst.MuxLayouts = make([][]*graph.PieceLayout, l)
		for j, p := range tc.Pieces {
			if _, inst.MuxLayouts[j], err = e.layoutsFor(p.Dist, true); err != nil {
				return nil, err
			}
		}
		sp := e.tr.begin("rrset.sample.multiplex")
		mrr, err = rrset.SampleMRRMultiplexLayouts(e.mx, inst.MuxLayouts, theta, wl.SampleSeed)
		e.tr.end(sp, int64(theta), totalSize(mrr))
	} else {
		prob.G = e.g
		inst.Layouts = make([]*graph.PieceLayout, l)
		for j, p := range tc.Pieces {
			if inst.Layouts[j], _, err = e.layoutsFor(p.Dist, false); err != nil {
				return nil, err
			}
		}
		sp := e.tr.begin("rrset.sample.single")
		mrr, err = rrset.SampleMRRLayouts(e.g, inst.Layouts, theta, wl.SampleSeed)
		e.tr.end(sp, int64(theta), totalSize(mrr))
	}
	if err != nil {
		return nil, err
	}
	ix, err := e.index(mrr)
	if err != nil {
		return nil, err
	}
	mrr.DropSampleCounts()
	if inst.Bounds, err = logistic.NewBoundTableMode(e.model, l, logistic.BoundHull); err != nil {
		return nil, err
	}
	inst.MRR, inst.Index = mrr, ix
	return &artifact{snapshot: &snapshot{inst, core.NewEvaluatorPool(inst), ix.MRR().NewEstimator()}, mux: mux}, nil
}

// grow extends the artifact to theta: delta sampling, then the O(Δθ)
// index extension, which grows the sketches in place.
func (e *engine) grow(a *artifact, theta int) error {
	old := a.inst.Theta()
	before := totalSize(a.inst.MRR)
	name := "rrset.sample.single"
	if a.mux {
		name = "rrset.sample.multiplex"
	}
	sp := e.tr.begin(name)
	err := a.inst.MRR.ExtendTo(theta)
	e.tr.end(sp, int64(theta-old), totalSize(a.inst.MRR)-before)
	if err != nil {
		return err
	}
	sp = e.tr.begin("rrset.index")
	ix, err := a.inst.Index.ExtendFrom(a.inst.MRR)
	e.tr.end(sp, int64(theta-old), 0)
	if err != nil {
		return err
	}
	inst := *a.inst
	inst.Index = ix
	a.evals.EnsureTheta(theta)
	a.snapshot = &snapshot{&inst, a.evals, ix.MRR().NewEstimator()}
	return nil
}

func totalSize(m *rrset.MRRCollection) int64 {
	if m == nil {
		return 0
	}
	return int64(m.TotalSize())
}

// do answers one request with plan as the estimate/simulate plan.
func (e *engine) do(r *wl.Request, plan [][]int32) (outcome, error) {
	switch r.Kind {
	case wl.Solve:
		return e.solve(r)
	case wl.Estimate:
		return e.estimate(r, plan)
	case wl.Simulate:
		return e.simulate(r, plan)
	}
	return outcome{}, fmt.Errorf("unknown request kind %q", r.Kind)
}

func (e *engine) sketchable(theta int) bool {
	return e.cfg.SketchK > 0 && theta >= sketchGate*e.cfg.SketchK
}

func (e *engine) solve(r *wl.Request) (outcome, error) {
	a, inst, err := e.instance(r.Campaign, r.Layers, r.Theta)
	if err != nil {
		return outcome{}, err
	}
	if inst, err = inst.WithK(r.K); err != nil {
		return outcome{}, err
	}
	if m := e.modelFor(r); m != e.model {
		if inst, err = inst.WithModel(m); err != nil {
			return outcome{}, err
		}
	}
	opts := core.BABOptions{Epsilon: wl.Epsilon, Tolerance: wl.Tolerance, RawGap: true, FillAfterFloor: true,
		Sketch: e.sketchable(r.Theta)}
	var res *core.Result
	sp := e.tr.begin("core.solve." + r.Method)
	switch r.Method {
	case "bab":
		res, err = a.evals.SolveBAB(inst, opts)
	case "babp":
		res, err = a.evals.SolveBABP(inst, opts)
	case "greedy":
		res, err = a.evals.SolveGreedy(inst, opts)
	default:
		err = fmt.Errorf("method %q not replayed", r.Method)
	}
	var tau int64
	if res != nil {
		tau = res.Stats.TauEvals
	}
	e.tr.end(sp, 1, tau)
	if err != nil {
		return outcome{}, err
	}
	st := res.Stats
	return outcome{Utility: res.Utility, Upper: res.Upper, Plan: res.Plan.Seeds,
		Stats: solveStats{int64(st.Nodes), int64(st.BoundEvals), st.TauEvals, st.SketchEvals, st.ReVerifyEvals}}, nil
}

func (e *engine) estimate(r *wl.Request, plan [][]int32) (outcome, error) {
	a, inst, err := e.instance(r.Campaign, r.Layers, r.Theta)
	if err != nil {
		return outcome{}, err
	}
	m := e.modelFor(r)
	if e.sketchable(r.Theta) {
		sp := e.tr.begin("rrset.estimate.sketch")
		u, serr := inst.Index.EstimateAUSketch(plan, m)
		if serr == nil {
			e.tr.end(sp, 1, 0)
			return outcome{Utility: u, Mode: "sketch"}, nil
		}
		e.tr.rename(sp, "rrset.estimate.sketch_fallback")
		e.tr.end(sp, 1, 0)
	}
	sp := e.tr.begin("rrset.estimate.exact")
	u, err := a.est.EstimateAUPrefix(plan, m, r.Theta)
	e.tr.end(sp, 1, 0)
	return outcome{Utility: u, Mode: "exact"}, err
}

// exact is the untraced exact estimate a sketch answer is compared to.
func (e *engine) exact(r *wl.Request, plan [][]int32) (float64, error) {
	a, _, err := e.instance(r.Campaign, r.Layers, r.Theta)
	if err != nil {
		return 0, err
	}
	return a.est.EstimateAUPrefix(plan, e.modelFor(r), r.Theta)
}

func (e *engine) simulate(r *wl.Request, plan [][]int32) (outcome, error) {
	tc, err := e.campaign(r.Campaign)
	if err != nil {
		return outcome{}, err
	}
	lays := make([]*graph.PieceLayout, tc.L())
	for j, p := range tc.Pieces {
		if lays[j], _, err = e.layoutsFor(p.Dist, false); err != nil {
			return outcome{}, err
		}
	}
	sp := e.tr.begin("cascade.simulate")
	u, err := cascade.EstimateAdoptionLayouts(e.g, lays, plan, e.modelFor(r), r.Runs, wl.SampleSeed)
	e.tr.end(sp, int64(r.Runs), 0)
	return outcome{Utility: u}, err
}
