package main

import (
	"fmt"
	"strings"
	"time"

	"oipa/perfbench/wl"
)

// windowOf assigns a result to its completion window; the in-flight
// tail finishing after the deadline joins the last window.
func windowOf(r *result, winLen time.Duration, n int) int {
	i := int(r.done / winLen)
	if i >= n {
		i = n - 1
	}
	return i
}

// windowedPercentile returns the median over n equal windows of the p-th
// percentile of the latencies (ms) of the successful results keep
// selects. Each window's median counts against the other windows, so a
// burst of interference on the shared host that spans less than half of
// them does not move it. ok is false when any window's percentile is
// not reportable.
func windowedPercentile(results []*result, phase time.Duration, n int, keep func(*result) bool, p float64) (v float64, ok bool) {
	per := make([][]float64, n)
	winLen := phase / time.Duration(n)
	for _, r := range results {
		if r.ok() && keep(r) {
			i := windowOf(r, winLen, n)
			per[i] = append(per[i], float64(r.lat)/float64(time.Millisecond))
		}
	}
	vals := make([]float64, n)
	for i, xs := range per {
		if vals[i], ok = wl.Percentile(xs, p); !ok {
			return 0, false
		}
	}
	return median(vals), true
}

// windowRates returns each of n windows' successful requests per second
// and completed requests.
func windowRates(results []*result, phase time.Duration, n int) (rates []float64, completed []int) {
	winLen := phase / time.Duration(n)
	ok := make([]int, n)
	completed = make([]int, n)
	for _, r := range results {
		i := windowOf(r, winLen, n)
		if r.body != nil && r.err == nil {
			completed[i]++
		}
		if r.ok() {
			ok[i]++
		}
	}
	for i, c := range ok {
		d := winLen
		if i == n-1 {
			// The last window runs to the last completion.
			var last time.Duration
			for _, r := range results {
				if r.done > last {
					last = r.done
				}
			}
			if last > phase {
				d += last - phase
			}
		}
		rates = append(rates, float64(c)/d.Seconds())
	}
	return rates, completed
}

func fmtFloats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4g", x)
	}
	return strings.Join(parts, " ")
}
