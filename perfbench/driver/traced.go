package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"

	"oipa/perfbench/wl"
)

type replayResult struct {
	Replayed int                  `json:"replayed"`
	TimedNS  int64                `json:"timed_ns"`
	Metrics  map[string]wl.Metric `json:"metrics"`
	Outputs  []string             `json:"outputs"`
	Counts   map[string]int64     `json:"counts"`
}

// replayCounters pairs the replay's registry transitions with the live
// server's /metrics counters.
var replayCounters = [][2]string{
	{"prepares", "registry.prepares"},
	{"extends", "registry.extends"},
	{"shrinks", "registry.shrinks"},
	{"evictions", "registry.instance_evictions"},
}

// countMargin is how far the replay's transitions per request may stray
// from the live server's: a share of the larger count plus countSlack
// transitions. The live registry sees the requests in arrival order,
// with two clients racing, and the replay in completion order, so their
// governors rotate epochs and pick shrink candidates at different
// points: on cold_growth the shrink counts differ by about a third.
// The margin still fails a replay that leaves a kind of transition out
// or makes it at a very different rate.
const (
	countMargin = 0.5
	countSlack  = 3
)

// checkCounts compares the replay's registry transitions over its
// replayed requests with the live deltas scaled to the same number of
// requests, so per-layer figures never leave out work the live server
// did (or count work it did not).
func checkCounts(rr *replayResult, live map[string]float64, sent int) error {
	for _, c := range replayCounters {
		want := live[c[1]] * float64(rr.Replayed) / float64(sent)
		got := float64(rr.Counts[c[0]])
		fmt.Printf("replay %s: %.0f over %d requests; live server: %.1f at the same rate\n", c[0], got, rr.Replayed, want)
		if math.Abs(got-want) > countMargin*math.Max(got, want)+countSlack {
			return fmt.Errorf("replay made %.0f %s, the live server %.1f per as many requests", got, c[0], want)
		}
	}
	return nil
}

// tracedRun replays the live run's requests, in their completion order,
// through cmd traced: once without spans (capped at seconds of replay)
// and once with spans over the same requests. It returns the per-layer
// metrics plus bench.trace_overhead_pct. It checks that the replay's
// registry made as many prepares, extends, shrinks and evictions per
// request as the live server (live holds its timed-phase /metrics
// deltas), and on workloads whose artifacts are fixed after set-up that
// the replay answered every request with the live server's bits.
func tracedRun(binDir string, w *wl.Workload, seed uint64, graphArgs []string, results []*result, live map[string]float64, seconds int, work string) (map[string]wl.Metric, error) {
	var (
		order [][2]int
		sent  []*result
	)
	for _, r := range results {
		if r.body != nil {
			order = append(order, [2]int{r.client, r.pos})
			sent = append(sent, r)
		}
	}
	orderPath := filepath.Join(work, "order.json")
	b, err := json.Marshal(order)
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(orderPath, b, 0o644); err != nil {
		return nil, err
	}
	replay := func(spans bool, limit int, tag string) (*replayResult, error) {
		out := filepath.Join(work, "replay-"+tag+".json")
		args := []string{"-workload", w.Name, "-seed", strconv.FormatUint(seed, 10), "-order", orderPath,
			"-spans=" + strconv.FormatBool(spans), "-out", out}
		for i := 0; i+1 < len(graphArgs); i += 2 {
			args = append(args, graphArgs[i], graphArgs[i+1])
		}
		if limit > 0 {
			args = append(args, "-limit", strconv.Itoa(limit))
		} else {
			args = append(args, "-max-seconds", strconv.Itoa(seconds))
		}
		if spans {
			args = append(args, "-span-out", filepath.Join(work, "..", "..", "spans-"+w.Name+".jsonl"))
		}
		cmd := exec.Command(filepath.Join(binDir, "traced"), args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stdout
		if err := runProc(cmd); err != nil {
			return nil, fmt.Errorf("replay with spans %s: %w", tag, err)
		}
		var rr replayResult
		raw, err := os.ReadFile(out)
		if err != nil {
			return nil, err
		}
		return &rr, json.Unmarshal(raw, &rr)
	}
	off, err := replay(false, 0, "off")
	if err != nil {
		return nil, err
	}
	if off.Replayed == 0 {
		return nil, fmt.Errorf("replay covered no requests")
	}
	on, err := replay(true, off.Replayed, "on")
	if err != nil {
		return nil, err
	}
	if on.Replayed != off.Replayed {
		return nil, fmt.Errorf("replays covered %d and %d requests", off.Replayed, on.Replayed)
	}
	fmt.Printf("traced replay: %d of %d timed requests; wall %.3fs spans off, %.3fs spans on\n",
		on.Replayed, len(sent), float64(off.TimedNS)/1e9, float64(on.TimedNS)/1e9)
	if err := checkCounts(on, live, len(sent)); err != nil {
		return nil, err
	}
	if w.FixedArtifacts {
		for i, o := range on.Outputs {
			r := sent[i]
			if !r.ok() {
				continue
			}
			live := fmt.Sprintf("u=%016x", math.Float64bits(r.resp.Utility))
			if o[:len(live)] != live {
				return nil, fmt.Errorf("replay answered client %d position %d %s with %s, the server with %s", r.client, r.pos, r.req.Kind, o, live)
			}
		}
	}
	m := on.Metrics
	m["bench.trace_overhead_pct"] = wl.Metric{Value: (float64(on.TimedNS)/float64(off.TimedNS) - 1) * 100, Unit: "%"}
	return m, nil
}
