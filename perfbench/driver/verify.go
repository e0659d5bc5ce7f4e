package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"sync"

	"oipa/perfbench/wl"
)

// verifyItem is one reference query for the verification server: the
// exact estimate of a plan, or a re-run simulation.
type verifyItem struct {
	req   wl.Request // Kind estimate or simulate, Plan filled
	group string     // artifact identity: campaign + layers
	value float64
	err   error
}

func itemKey(r *wl.Request) string {
	b, _ := r.Body(r.Plan)
	return string(b)
}

// reference builds the verification item a timed-phase result is
// checked against: solves and estimates against the exact estimate of
// their plan (same θ, layers and model), simulates against a re-run.
func reference(r *result) wl.Request {
	q := wl.Request{Kind: wl.Estimate, Campaign: r.req.Campaign, Theta: r.req.Theta, Layers: r.req.Layers,
		Alpha: r.req.Alpha, Beta: r.req.Beta, Plan: r.plan, PlanFrom: -1}
	switch r.req.Kind {
	case wl.Solve:
		q.Plan = r.resp.Plan
	case wl.Simulate:
		q.Kind, q.Theta, q.Runs = wl.Simulate, 0, r.req.Runs
	}
	return q
}

// verify boots the verification server (no sketches), queries the
// reference of every successful result, and returns the failed checks.
func verify(binDir string, args []string, logPath string, results []*result) (fails []string, err error) {
	items := referenceItems(results)
	// Group by artifact and query the largest θ first, so each campaign
	// prepares once and the rest are prefix hits.
	groups := map[string][]*verifyItem{}
	for _, it := range items {
		groups[it.group] = append(groups[it.group], it)
	}
	names := make([]string, 0, len(groups))
	for g, its := range groups {
		names = append(names, g)
		sort.Slice(its, func(i, j int) bool {
			if its[i].req.Theta != its[j].req.Theta {
				return its[i].req.Theta > its[j].req.Theta
			}
			return itemKey(&its[i].req) < itemKey(&its[j].req)
		})
	}
	sort.Strings(names)

	srv, err := startServer(binDir, args, logPath)
	if err != nil {
		return nil, fmt.Errorf("verification server: %w", err)
	}
	defer srv.stop()
	var wg sync.WaitGroup
	const workers = 2
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := newHTTPClient()
			for gi := w; gi < len(names); gi += workers {
				for _, it := range groups[names[gi]] {
					_, _, resp, _, err := post(c, srv.base, &it.req, it.req.Plan)
					it.value, it.err = resp.Utility, err
					if err == nil && it.req.Kind == wl.Estimate && resp.EstimateMode != "exact" {
						it.err = fmt.Errorf("verification estimate answered in %q mode", resp.EstimateMode)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	return checkResults(results, items), nil
}

// referenceItems collects the distinct reference queries the successful
// results need, keyed by request body.
func referenceItems(results []*result) map[string]*verifyItem {
	items := map[string]*verifyItem{}
	for _, r := range results {
		if !r.ok() {
			continue
		}
		q := reference(r)
		k := itemKey(&q)
		if items[k] == nil {
			b, _ := json.Marshal(struct {
				C      *wl.Campaign
				Layers []int
			}{q.Campaign, q.Layers})
			items[k] = &verifyItem{req: q, group: string(b)}
		}
	}
	return items
}

// checkResults compares every successful result with its answered
// reference and returns the failed checks.
func checkResults(results []*result, items map[string]*verifyItem) (fails []string) {
	for _, r := range results {
		if !r.ok() {
			continue
		}
		q := reference(r)
		it := items[itemKey(&q)]
		what := fmt.Sprintf("client %d position %d %s", r.client, r.pos, r.req.Kind)
		if it == nil || it.err != nil {
			fails = append(fails, fmt.Sprintf("%s: reference query failed: %v", what, it))
			continue
		}
		var cerr error
		switch {
		case r.req.Kind == wl.Estimate && r.resp.EstimateMode == "sketch":
			cerr = wl.CheckSketch(what, r.resp.Utility, it.value, wl.SketchK)
		default:
			cerr = wl.CheckExact(what+" utility", r.resp.Utility, it.value)
		}
		if cerr != nil {
			fails = append(fails, cerr.Error())
		}
	}
	return fails
}

// deterministic reports whether r's output bits must repeat for an
// identical request, within a run and across runs. Exact estimates and
// simulations always must. Solves and sketch estimates must only where
// the artifacts are fixed after set-up: elsewhere the sketch state they
// read depends on the artifact's grow/shrink lineage, which depends on
// how clients interleave.
func deterministic(w *wl.Workload, r *result) bool {
	switch {
	case r.req.Kind == wl.Simulate:
		return true
	case r.req.Kind == wl.Estimate && r.resp.EstimateMode == "exact":
		return true
	}
	return w.FixedArtifacts
}

// outputBits renders the bits a deterministic result must reproduce.
func outputBits(r *result) string {
	s := fmt.Sprintf("u=%016x", math.Float64bits(r.resp.Utility))
	if r.req.Kind == wl.Solve {
		p, _ := json.Marshal(r.resp.Plan)
		s += fmt.Sprintf(" up=%016x plan=%s", math.Float64bits(r.resp.Upper), p)
	}
	return s
}

// repeatChecks checks that identical requests returned identical bits
// within the run, compares against the outputs a previous run of the
// same build and seed stored at storePath (if any), stores this run's,
// and returns the failed checks plus the digest of the first
// digestPrefix positions of every client list.
func repeatChecks(w *wl.Workload, results []*result, storePath string, digestPrefix int) (fails []string, digest string) {
	seen := map[string]string{}
	for _, r := range results {
		if !r.ok() || !deterministic(w, r) {
			continue
		}
		k, bits := string(r.body), outputBits(r)
		if prev, ok := seen[k]; ok && prev != bits {
			fails = append(fails, fmt.Sprintf("client %d position %d: repeated identical %s returned %s, earlier %s", r.client, r.pos, r.req.Kind, bits, prev))
			continue
		}
		seen[k] = bits
	}
	if b, err := os.ReadFile(storePath); err == nil {
		var prev map[string]string
		if json.Unmarshal(b, &prev) == nil {
			for k, bits := range seen {
				if p, ok := prev[k]; ok && p != bits {
					fails = append(fails, fmt.Sprintf("request %.120s: returned %s, a previous run of this build and seed %s", k, bits, p))
				}
			}
			for k, p := range prev {
				if _, ok := seen[k]; !ok {
					seen[k] = p
				}
			}
		}
	}
	if b, err := json.Marshal(seen); err == nil {
		// Best effort, like reading it: a lost store skips one comparison.
		_ = os.WriteFile(storePath, b, 0o644)
	}

	// Digest: the first digestPrefix positions of every list, if reached.
	var lines []string
	reached := make([]int, len(w.Lists))
	for _, r := range results {
		if r.pos < digestPrefix {
			reached[r.client]++
			if r.ok() && deterministic(w, r) {
				lines = append(lines, fmt.Sprintf("%d/%d %s", r.client, r.pos, outputBits(r)))
			}
		}
	}
	for cl, n := range reached {
		if want := min(digestPrefix, len(w.Lists[cl])); n < want {
			return fails, fmt.Sprintf("incomplete (client %d reached %d of %d positions)", cl, n, want)
		}
	}
	sort.Strings(lines)
	sum := sha256.Sum256([]byte(strings.Join(lines, "\n")))
	return fails, fmt.Sprintf("%x (%d deterministic outputs in the first %d positions of each list)", sum[:8], len(lines), digestPrefix)
}
