// Package wl defines the benchmark's workloads: the request lists each
// run replays, generated deterministically from the workload seed, plus
// the arithmetic the driver and the traced replay share (percentiles,
// span self time, output checks). It imports nothing from oipa/internal:
// requests are plain HTTP JSON bodies.
package wl

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
)

// Graph inputs. The base graph is the dblp preset at n = 10k, m = 120k;
// the second multiplex layer is a dblp graph half that size, identity
// mapped onto the first 5k node ids.
const (
	BaseScale  = 0.02
	LayerScale = 0.01
	BaseN      = 10_000
	Topics     = 9
	SketchK    = 256
)

// Request parameters every request states explicitly rather than
// leaving to the server's defaults, so the live server, the
// verification server and the traced replay read each value from here.
const (
	SampleSeed = 1    // "seed" of solves, estimates and simulations
	Epsilon    = 0.5  // BAB-P decay of solves
	Tolerance  = 0.01 // termination gap of solves
)

// Workload names, in the order BENCHMARK.json lists them.
const (
	WarmMix    = "warm_mix"
	ColdGrowth = "cold_growth"
	DeepSearch = "deep_search"
)

// Names lists every workload.
var Names = []string{WarmMix, ColdGrowth, DeepSearch}

// Piece is one campaign piece in the server's JSON form.
type Piece struct {
	Name   string             `json:"name"`
	Topics map[string]float64 `json:"topics"`
}

// Campaign is a campaign in the server's JSON form.
type Campaign struct {
	Name   string  `json:"name"`
	Pieces []Piece `json:"pieces"`
}

// Request kinds.
const (
	Solve    = "solve"
	Estimate = "estimate"
	Simulate = "simulate"
)

// Request is one entry of a client's list. Solve, estimate and simulate
// share the struct; Body renders the endpoint's JSON. An estimate or
// simulate with PlanFrom >= 0 uses the plan returned by the solve at
// that position of the same client's list (resolved at send time, so a
// run sends the same bytes every time: solves are deterministic).
type Request struct {
	Kind     string    `json:"kind"`
	Campaign *Campaign `json:"campaign"`
	Method   string    `json:"method,omitempty"`
	K        int       `json:"k,omitempty"`
	Theta    int       `json:"theta,omitempty"`
	Layers   []int     `json:"layers,omitempty"`
	Alpha    float64   `json:"alpha,omitempty"`
	Beta     float64   `json:"beta,omitempty"`
	Runs     int       `json:"runs,omitempty"`
	Plan     [][]int32 `json:"plan,omitempty"`
	PlanFrom int       `json:"plan_from"`
}

// Path is the endpoint the request posts to.
func (r *Request) Path() string { return "/v1/" + r.Kind }

// Body renders the HTTP JSON body with plan as the estimate/simulate
// plan (ignored for solves).
func (r *Request) Body(plan [][]int32) ([]byte, error) {
	m := map[string]interface{}{"campaign": r.Campaign}
	m["seed"] = SampleSeed
	switch r.Kind {
	case Solve:
		m["method"], m["k"], m["theta"] = r.Method, r.K, r.Theta
		m["epsilon"], m["tolerance"] = Epsilon, Tolerance
	case Estimate:
		m["theta"], m["plan"] = r.Theta, plan
	case Simulate:
		m["runs"], m["plan"] = r.Runs, plan
	default:
		return nil, fmt.Errorf("wl: unknown request kind %q", r.Kind)
	}
	if len(r.Layers) > 0 {
		m["layers"] = r.Layers
	}
	if r.Alpha != 0 {
		m["alpha"], m["beta"] = r.Alpha, r.Beta
	}
	return json.Marshal(m)
}

// Server is the oipa-serve configuration beyond the graph inputs. Every
// field is passed to the binary as an explicit flag, and the traced
// replay reads the same fields, so neither depends on oipa-serve's
// defaults.
type Server struct {
	PoolFraction float64 `json:"pool"`
	PoolSeed     int     `json:"poolseed"`
	Ratio        float64 `json:"ratio"` // beta/alpha of the default model, beta = 1
	Layouts      int     `json:"layouts"`
	Instances    int     `json:"instances"`
	SketchK      int     `json:"sketch_k"`
	MemBudget    int     `json:"mem_budget"` // 0 = ungoverned
	MemEpoch     int     `json:"mem_epoch"`
}

// baseServer is the configuration every workload starts from.
func baseServer() Server {
	return Server{PoolFraction: 0.10, PoolSeed: 2, Ratio: 0.5, Layouts: 128, Instances: 8, SketchK: SketchK, MemEpoch: 64}
}

// ModelFlags are the flags that fix the promoter pool and the default
// model: the verification server takes these and not the rest.
func (s Server) ModelFlags() []string {
	return []string{"-pool", strconv.FormatFloat(s.PoolFraction, 'g', -1, 64), "-poolseed", strconv.Itoa(s.PoolSeed),
		"-ratio", strconv.FormatFloat(s.Ratio, 'g', -1, 64)}
}

// Flags renders the whole configuration as oipa-serve flags. The
// background governor tick is off, so the registry's shrink and
// eviction decisions follow the request stream alone, as in the replay.
func (s Server) Flags() []string {
	return append(s.ModelFlags(), "-layouts", strconv.Itoa(s.Layouts), "-instances", strconv.Itoa(s.Instances),
		"-sketch-k", strconv.Itoa(s.SketchK), "-mem-budget", strconv.Itoa(s.MemBudget),
		"-mem-epoch", strconv.Itoa(s.MemEpoch), "-mem-tick", "-1s")
}

// Workload is everything one run sends: the server's configuration, the
// warm-up requests that finish set-up, and one request list per client.
// Lists marked Cycle are replayed from the start when a client reaches
// the end; the others are long enough not to run out.
type Workload struct {
	Name      string `json:"name"`
	Why       string `json:"why"`
	Clients   int    `json:"clients"`
	Multiplex bool   `json:"multiplex"`
	Server    Server `json:"server"`
	// RequestTimeout is oipa-serve's -request-timeout, "" for the default.
	RequestTimeout string `json:"request_timeout,omitempty"`
	Cycle          bool   `json:"cycle"`
	// Windows is how many equal sub-intervals of the timed phase every
	// end-to-end rate and percentile is the median over. It is fixed per
	// workload, so each metric is always the same estimator; a run with
	// a window too thin for a percentile fails instead of merging
	// windows.
	Windows int `json:"windows"`
	// FixedArtifacts: set-up prepares every artifact the timed phase
	// reads and nothing grows, shrinks or evicts them afterwards, so
	// solves and sketch estimates repeat bit for bit.
	FixedArtifacts bool        `json:"fixed_artifacts"`
	Warmup         []Request   `json:"warmup"`
	Lists          [][]Request `json:"lists"`
}

// Why is each workload's one-line reason, as BENCHMARK.json gives it.
var Why = map[string]string{
	WarmMix:    "interactive steady state: hits and prefix views only, time goes to core evaluation, the rrset estimators and serve overhead",
	ColdGrowth: "new campaigns on ascending theta ladders: layout builds, single and multiplex sampling, index growth and the registry's grow-shrink-evict cycle",
	DeepSearch: "one client on steep adoption models: time goes to the core branch-and-bound search, leaving the second core idle",
}

// Generate builds the named workload from seed. The same (name, seed)
// always yields a byte-identical workload.
func Generate(name string, seed uint64) (*Workload, error) {
	r := newRNG(seed ^ nameSalt(name))
	switch name {
	case WarmMix:
		return warmMix(r), nil
	case ColdGrowth:
		return coldGrowth(r), nil
	case DeepSearch:
		return deepSearch(r), nil
	}
	return nil, fmt.Errorf("wl: unknown workload %q (want one of %v)", name, Names)
}

// Encode renders the workload as canonical JSON (map keys sorted).
func (w *Workload) Encode() ([]byte, error) { return json.Marshal(w) }

func nameSalt(name string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return h
}

// ---- generators ----
//
// The seed varies the request stream — its order, the random plans, the
// cold campaigns — but not the dataset: the graphs, the resident
// campaigns and the topic palette are fixed, and every list holds the
// same multiset of request shapes. With a per-seed graph, steep-model
// search costs swung by 30-60% between seeds, wider than any bound a
// gate can hold.

// catalogueSeed draws the fixed campaigns and palette.
const catalogueSeed = 0x6f697061

// Graph generator seeds (fixed, see above).
const (
	BaseGraphSeed  = 1
	LayerGraphSeed = 2
)

// unit is a run of requests that stays together when a list is
// shuffled: a solve and the estimates citing it.
type unit []Request

// flatten shuffles units and concatenates them, rebasing PlanFrom (an
// index within its unit) to a list position.
func flatten(r *rng, units []unit) []Request {
	for i := len(units) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		units[i], units[j] = units[j], units[i]
	}
	var list []Request
	for _, u := range units {
		base := len(list)
		for _, q := range u {
			if q.PlanFrom >= 0 {
				q.PlanFrom += base
			}
			list = append(list, q)
		}
	}
	return list
}

// warmMix: eight resident campaigns prepared to θ = 100k during set-up.
// Each client's list holds every (campaign, k, θ) babp solve, 24 greedy
// solves, an estimate of the returned plan after 64 of them (sketch
// path) and 32 estimates of random-node plans (exact-scan fallback), in
// a seed-shuffled order:
// ~45% babp, ~10% greedy, ~45% estimates, all at θ the set-up covers.
func warmMix(r *rng) *Workload {
	cat := newRNG(catalogueSeed)
	camps := make([]*Campaign, 8)
	for i := range camps {
		camps[i] = randomCampaign(cat, fmt.Sprintf("warm-%d", i), 2+i%3, nil)
	}
	w := &Workload{
		Name:           WarmMix,
		Why:            Why[WarmMix],
		Clients:        2,
		Server:         baseServer(),
		Cycle:          true,
		Windows:        5,
		FixedArtifacts: true,
	}
	w.Server.Instances = 16
	for _, c := range camps {
		w.Warmup = append(w.Warmup, Request{Kind: Solve, Campaign: c, Method: "greedy", K: 5, Theta: 100_000, PlanFrom: -1})
	}
	thetas := []int{25_000, 50_000, 100_000}
	for cl := 0; cl < w.Clients; cl++ {
		var solves []unit
		for _, c := range camps {
			for _, th := range thetas {
				for _, k := range []int{5, 10, 20, 40} {
					solves = append(solves, unit{{Kind: Solve, Campaign: c, Method: "babp", K: k, Theta: th, PlanFrom: -1}})
				}
				solves = append(solves, unit{{Kind: Solve, Campaign: c, Method: "greedy", K: 10, Theta: th, PlanFrom: -1}})
			}
		}
		// 64 of the 120 solves are followed by an estimate of their plan:
		// the babp solves at k = 5 and 20, and the greedy solves at
		// θ = 25k and 100k.
		for i, u := range solves {
			s := u[0]
			if (s.Method == "babp" && (s.K == 5 || s.K == 20)) || (s.Method == "greedy" && s.Theta != 50_000) {
				solves[i] = append(u, Request{Kind: Estimate, Campaign: s.Campaign, Theta: s.Theta, PlanFrom: 0})
			}
		}
		units := solves
		for i := 0; i < 32; i++ {
			c := camps[i%len(camps)]
			units = append(units, unit{{Kind: Estimate, Campaign: c, Theta: thetas[i%len(thetas)],
				Plan: randomPlan(r, len(c.Pieces), BaseN), PlanFrom: -1}})
		}
		w.Lists = append(w.Lists, flatten(r, units))
	}
	return w
}

// coldGrowth: each client walks its own stream of new campaigns. Each
// campaign climbs θ = 10k → 20k → 40k with a solve per rung and is
// revisited with a solve at a smaller θ three campaigns later. Pieces
// take a fixed palette distribution half the time, a quarter of the
// campaigns diffuse over both layers, and ~5% of requests simulate a
// single-layer plan. Beside the stream, each client keeps two hot
// campaigns, each sent one request per step: an estimate at θ = 10k,
// and every eighth step a solve at θ = 40k. The estimates stay on the
// resident path, so their latency reads the estimator under sampling
// load, not registry misses. The hot campaigns' 40k demand ages out of
// the governor's recency window between the solves, so the registry
// shrinks them to 10k and grows them back: the grow → shrink → evict
// cycle, not only grow → evict.
func coldGrowth(r *rng) *Workload {
	const campaignsPerClient = 2000
	cat := newRNG(catalogueSeed)
	palette := make([]map[string]float64, 12)
	for i := range palette {
		palette[i] = randomTopics(cat)
	}
	w := &Workload{
		Name:      ColdGrowth,
		Why:       Why[ColdGrowth],
		Clients:   2,
		Multiplex: true,
		Server:    baseServer(),
		Windows:   3,
	}
	w.Server.Instances, w.Server.Layouts = 16, 32
	w.Server.MemBudget, w.Server.MemEpoch = ColdMemBudget, 32
	// One palette campaign warms the layout cache and the handlers.
	w.Warmup = []Request{{Kind: Solve, Campaign: randomCampaign(cat, "cold-warmup", 2, palette), Method: "greedy", K: 5, Theta: 10_000, PlanFrom: -1}}
	ladder := []int{10_000, 20_000, 40_000}
	for cl := 0; cl < w.Clients; cl++ {
		var list []Request
		type camp struct {
			c      *Campaign
			layers []int
		}
		var camps []camp
		solve := func(c camp, theta int) int {
			method := "babp"
			if r.float() < 0.3 {
				method = "greedy"
			}
			list = append(list, Request{Kind: Solve, Campaign: c.c, Method: method, K: 5 + 5*r.intn(3),
				Theta: theta, Layers: c.layers, PlanFrom: -1})
			si := len(list) - 1
			if c.layers == nil && r.float() < 0.12 {
				list = append(list, Request{Kind: Simulate, Campaign: c.c, Runs: 1000 + 100*r.intn(11), PlanFrom: si})
			}
			return si
		}
		var hot [2]camp
		var hotPlan [2]int
		for h := range hot {
			hot[h] = camp{c: randomCampaign(r, fmt.Sprintf("cold-hot-%d-%d", cl, h), 2, palette)}
			hotPlan[h] = solve(hot[h], 40_000)
		}
		for i := 0; i < campaignsPerClient; i++ {
			for h := range hot {
				if i%8 == 0 {
					solve(hot[h], 40_000)
				} else {
					list = append(list, Request{Kind: Estimate, Campaign: hot[h].c, Theta: 10_000, PlanFrom: hotPlan[h]})
				}
			}
			c := camp{c: randomCampaign(r, fmt.Sprintf("cold-%d-%d", cl, i), 2+r.intn(2), palette)}
			if r.float() < 0.25 {
				c.layers = []int{0, 1}
			}
			camps = append(camps, c)
			for _, theta := range ladder {
				solve(c, theta)
			}
			if i >= 3 {
				solve(camps[i-3], ladder[r.intn(2)])
			}
		}
		w.Lists = append(w.Lists, list)
	}
	return w
}

// ColdMemBudget is cold_growth's -mem-budget: about a third of the
// resident bytes sixteen grown campaigns hold.
const ColdMemBudget = 12 << 20

// deepSearch: four campaigns prepared at θ = 40k; one client sends
// bab/babp solves on steep adoption models, most of them followed by an
// estimate of the returned plan under the same model.
func deepSearch(r *rng) *Workload {
	cat := newRNG(catalogueSeed)
	camps := make([]*Campaign, 4)
	for i := range camps {
		camps[i] = randomCampaign(cat, fmt.Sprintf("deep-%d", i), 2+i%2, nil)
	}
	w := &Workload{
		Name:           DeepSearch,
		Why:            Why[DeepSearch],
		Clients:        1,
		Server:         baseServer(),
		RequestTimeout: "120s",
		Cycle:          true,
		Windows:        2,
		FixedArtifacts: true,
	}
	for _, c := range camps {
		w.Warmup = append(w.Warmup, Request{Kind: Solve, Campaign: c, Method: "greedy", K: 4, Theta: 40_000, PlanFrom: -1})
	}
	// Per campaign and method: α = 4, β = 2 at k = 4, 6 and 8, and α = 6,
	// β = 2 at k = 4 (α = 6 with k >= 6 runs for seconds and would
	// degrade). Measured on a 2-vCPU VM these searches take 1-60 ms,
	// except four that take 120-560 ms; each of those would come once per
	// pass, so a percentile would sit on the step between two single
	// requests and jump with the request order. They are left out. The
	// cheap α = 4, k = 4 solve is sent three times, and the two ~60 ms
	// α = 6 bab searches three times each: that block holds the top 12%
	// of solves, so solve_p95 and latency_p95 both fall inside it. Every
	// solve but the repeats is followed by an estimate of its plan under
	// the same model: estimates are 40% of the requests, so the
	// all-request p50 falls inside the cheap solves.
	type shape struct {
		alpha float64
		k     int
	}
	type search struct {
		camp   int
		method string
		shape
	}
	skip := map[search]bool{
		{3, "bab", shape{4, 8}}: true, {3, "babp", shape{4, 8}}: true,
		{1, "babp", shape{6, 4}}: true, {3, "babp", shape{6, 4}}: true,
	}
	repeats := map[search]int{{1, "bab", shape{6, 4}}: 3, {3, "bab", shape{6, 4}}: 3}
	var units []unit
	for ci, c := range camps {
		for _, m := range []string{"bab", "babp"} {
			for _, s := range []shape{{4, 4}, {4, 6}, {4, 8}, {6, 4}} {
				key := search{ci, m, s}
				if skip[key] {
					continue
				}
				cheap := s == shape{4, 4}
				n := repeats[key]
				if cheap {
					n = 3
				}
				for i := 0; i < max(n, 1); i++ {
					u := unit{{Kind: Solve, Campaign: c, Method: m, K: s.k, Theta: 40_000, Alpha: s.alpha, Beta: 2, PlanFrom: -1}}
					if i == 0 || !cheap {
						u = append(u, Request{Kind: Estimate, Campaign: c, Theta: 40_000, Alpha: s.alpha, Beta: 2, PlanFrom: 0})
					}
					units = append(units, u)
				}
			}
		}
	}
	w.Lists = [][]Request{flatten(r, units)}
	return w
}

// randomTopics draws a one- or two-topic distribution.
func randomTopics(r *rng) map[string]float64 {
	a := r.intn(Topics)
	if r.float() < 0.5 {
		return map[string]float64{strconv.Itoa(a): 1}
	}
	b := (a + 1 + r.intn(Topics-1)) % Topics
	wa := 0.1 + 0.8*r.float()
	return map[string]float64{strconv.Itoa(a): wa, strconv.Itoa(b): 1 - wa}
}

// randomCampaign draws l pieces; with a palette, each piece takes a
// palette distribution half the time.
func randomCampaign(r *rng, name string, l int, palette []map[string]float64) *Campaign {
	c := &Campaign{Name: name}
	for j := 0; j < l; j++ {
		t := randomTopics(r)
		if palette != nil && r.float() < 0.5 {
			t = palette[r.intn(len(palette))]
		}
		c.Pieces = append(c.Pieces, Piece{Name: fmt.Sprintf("p%d", j), Topics: t})
	}
	return c
}

// randomPlan draws 1-3 distinct random graph nodes per piece.
func randomPlan(r *rng, l, n int) [][]int32 {
	plan := make([][]int32, l)
	for j := range plan {
		seen, want := map[int32]bool{}, 1+r.intn(3)
		for len(plan[j]) < want {
			v := int32(r.intn(n))
			if !seen[v] {
				seen[v] = true
				plan[j] = append(plan[j], v)
			}
		}
		sort.Slice(plan[j], func(a, b int) bool { return plan[j][a] < plan[j][b] })
	}
	return plan
}

// rng is SplitMix64: fixed, so request lists never depend on the Go
// release's math/rand.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng { return &rng{s: seed} }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }
