package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"oipa/perfbench/wl"
)

// response is the union of the solve, estimate and simulate bodies the
// driver reads.
type response struct {
	Utility      float64          `json:"utility"`
	Upper        float64          `json:"upper"`
	Plan         [][]int32        `json:"plan"`
	SolveMS      float64          `json:"solve_ms"`
	SampleMS     float64          `json:"sample_ms"`
	IndexMS      float64          `json:"index_ms"`
	Stats        map[string]int64 `json:"stats"`
	Degraded     bool             `json:"degraded"`
	EstimateMode string           `json:"estimate_mode"`
	Runs         int              `json:"runs"`
}

// result is one request of the timed phase.
type result struct {
	client, pos int // pos: position in the client's request stream (list index = pos mod len)
	req         *wl.Request
	body        []byte
	plan        [][]int32 // plan sent (estimate, simulate)
	lat         time.Duration
	done        time.Duration // completion offset from the phase start
	status      int
	err         error
	resp        response
}

func (r *result) ok() bool { return r.err == nil && r.status == http.StatusOK && !r.resp.Degraded }

func newHTTPClient() *http.Client {
	return &http.Client{
		Timeout:   150 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: 8, DisableCompression: true},
	}
}

// post sends one request and decodes the reply.
func post(c *http.Client, base string, req *wl.Request, plan [][]int32) (body []byte, status int, resp response, lat time.Duration, err error) {
	body, err = req.Body(plan)
	if err != nil {
		return nil, 0, resp, 0, err
	}
	start := time.Now()
	hr, err := c.Post(base+req.Path(), "application/json", bytes.NewReader(body))
	if err != nil {
		return body, 0, resp, time.Since(start), err
	}
	raw, err := io.ReadAll(hr.Body)
	hr.Body.Close()
	lat = time.Since(start)
	if err != nil {
		return body, hr.StatusCode, resp, lat, err
	}
	if hr.StatusCode != http.StatusOK {
		return body, hr.StatusCode, resp, lat, fmt.Errorf("%s: HTTP %d: %.200s", req.Path(), hr.StatusCode, raw)
	}
	err = json.Unmarshal(raw, &resp)
	return body, hr.StatusCode, resp, lat, err
}

// stream walks one client's list: plans remembers the plan each solve
// position returned, so estimates and simulates that cite it send it.
type stream struct {
	list  []wl.Request
	cycle bool
	plans map[int][][]int32
}

// next returns the request at stream position pos and its plan, or
// ok=false when the list is exhausted. skip reports a request whose
// cited solve failed: it counts as attempted and failed, unsent.
func (s *stream) next(pos int) (req *wl.Request, plan [][]int32, ok, skip bool) {
	if pos >= len(s.list) && !s.cycle {
		return nil, nil, false, false
	}
	req = &s.list[pos%len(s.list)]
	plan = req.Plan
	if req.PlanFrom >= 0 {
		p, found := s.plans[req.PlanFrom]
		if !found {
			return req, nil, true, true
		}
		plan = p
	}
	return req, plan, true, false
}

func (s *stream) record(pos int, r *result) {
	if r.req.Kind == wl.Solve {
		if r.ok() {
			s.plans[pos%len(s.list)] = r.resp.Plan
		} else {
			delete(s.plans, pos%len(s.list))
		}
	}
}

// runSequential sends reqs one after another (set-up warm-up).
func runSequential(c *http.Client, base string, reqs []wl.Request) error {
	for i := range reqs {
		if _, _, resp, _, err := post(c, base, &reqs[i], reqs[i].Plan); err != nil {
			return err
		} else if resp.Degraded {
			return fmt.Errorf("warm-up solve %d degraded", i)
		}
	}
	return nil
}

// closedLoop runs one goroutine per client list, each sending its next
// request only after the previous reply, until d has elapsed. It returns
// every result in completion order and whether any non-cycling list
// ran out.
func closedLoop(base string, w *wl.Workload, d time.Duration) (results []*result, exhausted bool) {
	var (
		mu  sync.Mutex
		wg  sync.WaitGroup
		out []*result
		ran bool
	)
	start := time.Now()
	deadline := start.Add(d)
	for cl := range w.Lists {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			c := newHTTPClient()
			s := &stream{list: w.Lists[cl], cycle: w.Cycle, plans: map[int][][]int32{}}
			for pos := 0; time.Now().Before(deadline); pos++ {
				req, plan, ok, skip := s.next(pos)
				if !ok {
					mu.Lock()
					ran = true
					mu.Unlock()
					return
				}
				r := &result{client: cl, pos: pos, req: req, plan: plan}
				if skip {
					r.err = fmt.Errorf("cited solve at position %d failed", req.PlanFrom)
				} else {
					r.body, r.status, r.resp, r.lat, r.err = post(c, base, req, plan)
				}
				r.done = time.Since(start)
				s.record(pos, r)
				mu.Lock()
				out = append(out, r)
				mu.Unlock()
			}
		}(cl)
	}
	wg.Wait()
	return out, ran
}
