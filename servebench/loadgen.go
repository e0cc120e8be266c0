package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"
)

// The generator is one process with at most two keep-alive connections
// to the system under test.  It sends on a deterministic open-loop
// schedule and times each request from its intended send time, so a
// stall that delays later requests counts against them too.

// op is one scheduled request: a pool variant, or an append when
// variant < 0.
type op struct {
	at      time.Duration // intended send time, from the phase start
	variant int
	app     int
}

// result is what the generator saw of one request.  Times are offsets
// from the phase start: dispatched is when the schedule released it,
// started when a connection took it, done when the body was read.
type result struct {
	intended, dispatched, started, done time.Duration
	status                              int
	err                                 error
	bytes                               int
	resp                                searchWire
}

func (r *result) ok() bool { return r.err == nil && r.status/100 == 2 }

// latency is the client-visible time, from the intended send.
func (r *result) latency() time.Duration { return r.done - r.intended }

// searchWire is the part of a /search response (node or coordinator)
// the benchmark reads.
type searchWire struct {
	ElapsedNs int64   `json:"elapsed_ns"`
	Total     int     `json:"total_matches"`
	Matches   []match `json:"matches"`
	Stats     struct {
		Candidates     int   `json:"candidates"`
		FalseAlarms    int   `json:"false_alarms"`
		CostRejected   int   `json:"cost_rejected"`
		IndexNodeReads int   `json:"index_node_reads"`
		DataPageReads  int   `json:"data_page_reads"`
		PlanNs         int64 `json:"plan_ns"`
		ProbeNs        int64 `json:"probe_ns"`
		VerifyNs       int64 `json:"verify_ns"`
	} `json:"stats"`
	Coverage *struct {
		Shards []struct {
			ElapsedNs int64 `json:"elapsed_ns"`
		} `json:"shards"`
	} `json:"coverage"`
}

// lane is one stream of requests over its own connections.
type lane struct {
	client *http.Client
	base   string
	conns  int
	ops    []op
	res    []result
	trace  *tracer // when set, each request's spans are recorded as it completes
}

func newLane(base string, conns int) *lane {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	return &lane{client: &http.Client{Transport: tr, Timeout: 30 * time.Second}, base: base, conns: conns}
}

func (l *lane) close() { l.client.Transport.(*http.Transport).CloseIdleConnections() }

// source is the stream of queries of a workload's mix: whole reps of
// the pool, each in a shuffled order.  The order comes from order, a
// fixed source, so every seed sends the same sequence of costs: with
// two connections a heavy query slows the next one, and a seed-drawn
// order made the tail depend on which queries happened to be adjacent.
// Arrival offsets come from rng, the run's seed.
type source struct {
	pool    *pool
	order   *rand.Rand
	rng     *rand.Rand
	rep     int   // next rep to draw
	pending []int // rest of the current rep
}

// take schedules the next n queries of the stream at rate.  A phase
// that starts on a rep boundary and takes whole reps sends every
// variant of the pool's mix in its exact proportion.
func (s *source) take(n int, rate float64) []op {
	ops := make([]op, n)
	for i, at := range slots(s.rng, rate, n) {
		if len(s.pending) == 0 {
			s.pending = s.pool.rep(s.rep)
			s.rep++
			s.order.Shuffle(len(s.pending), func(i, j int) { s.pending[i], s.pending[j] = s.pending[j], s.pending[i] })
		}
		ops[i] = op{at: at, variant: s.pending[0]}
		s.pending = s.pending[1:]
	}
	return ops
}

// repsFor is the number of whole reps closest to rate over d, at least
// one.
func (s *source) repsFor(rate float64, d time.Duration) int {
	return max(1, int(math.Round(rate*d.Seconds()/float64(s.pool.repLen()))))
}

// slots returns n arrival times at rate per second, one in each 1/rate
// slot at an offset drawn from rng.  The loop stays open (a slow server
// does not slow the schedule) and arrivals stay irregular, but two
// arrivals land closer than a service time far less often than under a
// Poisson process, whose bursts made the median of a few dozen requests
// swing by a third between otherwise identical runs.
func slots(rng *rand.Rand, rate float64, n int) []time.Duration {
	at := make([]time.Duration, n)
	for i := range at {
		at[i] = time.Duration((float64(i) + rng.Float64()) / rate * float64(time.Second))
	}
	return at
}

// sender performs one request of a lane.
type sender func(l *lane, o op, r *result)

// runPhase plays every lane's schedule at once and returns when all
// requests have completed.
func runPhase(send sender, lanes ...*lane) {
	start := time.Now().Add(20 * time.Millisecond)
	var wg sync.WaitGroup
	for _, l := range lanes {
		l.res = make([]result, len(l.ops))
		queue := make(chan int, len(l.ops)) // the whole schedule fits: the dispatcher never blocks
		wg.Add(1)
		go func(l *lane) {
			defer wg.Done()
			defer close(queue)
			for i, o := range l.ops {
				if d := time.Until(start.Add(o.at)); d > 0 {
					time.Sleep(d)
				}
				l.res[i].intended = o.at
				l.res[i].dispatched = time.Since(start)
				queue <- i
			}
		}(l)
		for c := 0; c < l.conns; c++ {
			wg.Add(1)
			go func(l *lane) {
				defer wg.Done()
				for i := range queue {
					r := &l.res[i]
					r.started = time.Since(start)
					send(l, l.ops[i], r)
					r.done = time.Since(start)
					if l.trace != nil {
						l.trace.request(r, start)
					}
				}
			}(l)
		}
	}
	wg.Wait()
}

// doRequest sends req and decodes a JSON body into out when 2xx.
func doRequest(c *http.Client, req *http.Request, r *result, out interface{}) {
	resp, err := c.Do(req)
	if err != nil {
		r.err = err
		return
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	r.status, r.bytes = resp.StatusCode, len(body)
	if err != nil {
		r.err = err
		return
	}
	if resp.StatusCode/100 != 2 {
		r.err = fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
		return
	}
	if out != nil {
		if err := json.Unmarshal(body, out); err != nil {
			r.err = fmt.Errorf("decoding response: %w", err)
		}
	}
}

// searchSender sends pool variants as GETs.
func searchSender(p *pool) sender {
	return func(l *lane, o op, r *result) {
		req, err := http.NewRequest(http.MethodGet, l.base+p.paths[o.variant], nil)
		if err != nil {
			r.err = err
			return
		}
		doRequest(l.client, req, r, &r.resp)
	}
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// percentile returns the nearest-rank p-th percentile of xs (sorted in
// place).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	i := int(math.Ceil(p/100*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

// phaseStats summarizes the completed requests of one lane.
type phaseStats struct {
	sent, failed int
	lat          []float64 // ms, ok requests only
	late         []float64 // ms, dispatched - intended
	wait         []float64 // ms, started - intended
	// growth is how fast requests' wait grows over the phase: the
	// Theil-Sen slope (the median over request pairs) of each request's
	// wait against its intended send time.  With at most two
	// connections a server that falls behind makes requests queue here,
	// in the generator, so a queue fed at f times its service rate
	// makes wait grow by f-1 seconds a second.  The median over pairs
	// reads a stall the queue recovers from (a compaction pause, say)
	// as no growth, where a least-squares fit swings with where in the
	// phase the stall fell.
	growth float64
}

func summarize(res []result) phaseStats {
	var s phaseStats
	var at []float64
	for i := range res {
		r := &res[i]
		s.sent++
		s.late = append(s.late, ms(r.dispatched-r.intended))
		s.wait = append(s.wait, ms(r.started-r.intended))
		at = append(at, ms(r.intended))
		if !r.ok() {
			s.failed++
			continue
		}
		s.lat = append(s.lat, ms(r.latency()))
	}
	s.growth = theilSen(at, s.wait)
	return s
}

// theilSen is the median of the slopes between every pair of points.
func theilSen(x, y []float64) float64 {
	var slopes []float64
	for i := range x {
		for j := i + 1; j < len(x); j++ {
			if dx := x[j] - x[i]; dx != 0 {
				slopes = append(slopes, (y[j]-y[i])/dx)
			}
		}
	}
	if len(slopes) == 0 {
		return 0
	}
	return median(slopes)
}
