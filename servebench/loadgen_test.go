package main

import (
	"math"
	"testing"
	"time"
)

// TestBacklogGrowth shows the growth statistic tells a queue that falls
// behind from one that stalls once and catches up.
func TestBacklogGrowth(t *testing.T) {
	const n = 200
	results := func(wait func(at float64) float64) []result {
		res := make([]result, n)
		for i := range res {
			at := float64(i) * 5 // ms, 200 req/s
			res[i].intended = time.Duration(at * float64(time.Millisecond))
			res[i].started = res[i].intended + time.Duration(wait(at)*float64(time.Millisecond))
			res[i].done = res[i].started + 3*time.Millisecond
			res[i].status = 200
		}
		return res
	}
	// Fed 10% above its service rate, the queue's wait grows by 0.1 s a
	// second.
	if g := summarize(results(func(at float64) float64 { return 0.1 * at })).growth; math.Abs(g-0.1) > 1e-9 {
		t.Errorf("overloaded queue: growth %v, want 0.1", g)
	}
	// A 150 ms stall late in the phase, drained at twice the arrival
	// rate, is not growth.
	stall := func(at float64) float64 {
		if at >= 700 && at < 1000 {
			return math.Max(0, 150-(at-700)/2)
		}
		return 0
	}
	if g := summarize(results(stall)).growth; g > maxGrowth {
		t.Errorf("recovered stall: growth %v > %v", g, maxGrowth)
	}
}
