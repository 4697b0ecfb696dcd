package main

import (
	"encoding/json"
	"math"
	"time"

	"repro/internal/daemon"
	"repro/internal/netmodel"
)

// samples collects one pass's end-to-end observations. Times are seconds.
type samples struct {
	solve, epoch, ingest, place, lag []float64
	cost, costRatio, churn           []float64
}

// report turns a pass's samples into the end-to-end metrics.
// The samples of each slice are in the order they were taken.
func (b *bench) report(s *samples) {
	p := func(name string, xs []float64, q, scale float64) {
		if q == 0.99 {
			b.e2e[name] = finite(windowQuantile(xs, q) * scale)
		} else {
			b.e2e[name] = finite(quantile(xs, q) * scale)
		}
		b.counts[name] = len(xs)
	}
	p("solve_s.p50", s.solve, 0.5, 1)
	p("epoch_s.p50", s.epoch, 0.5, 1)
	p("epoch_s.p90", s.epoch, 0.9, 1)
	p("ingest_ms.p50", s.ingest, 0.5, 1e3)
	p("ingest_ms.p99", s.ingest, 0.99, 1e3)
	p("placement_ms.p50", s.place, 0.5, 1e3)
	p("placement_ms.p99", s.place, 0.99, 1e3)
	p("publish_lag_s.p50", s.lag, 0.5, 1)
	p("publish_lag_s.p99", s.lag, 0.99, 1)
	b.e2e["cost_ratio"] = finite(mean(s.costRatio))
	b.e2e["epoch_cost"] = mean(s.cost)
	b.e2e["viewer_churn"] = mean(s.churn)
	b.counts["cost_ratio"] = len(s.costRatio)
	b.counts["epoch_cost"] = len(s.cost)
	b.counts["viewer_churn"] = len(s.churn)
}

// placementOf answers GET /placement?sink=sink from a design, the way the
// daemon's handler does: it is both the batch workloads' lookup and the
// oracle the daemon's answers are checked against.
func placementOf(in *netmodel.Instance, d *netmodel.Design, met []bool, epoch, sink int) daemon.PlacementResponse {
	resp := daemon.PlacementResponse{Sink: sink, Epoch: epoch, Streams: []daemon.PlacementStream{}}
	lo, hi := in.ViewerRange(sink)
	for j := lo; j < hi; j++ {
		ps := daemon.PlacementStream{
			Stream:     in.Commodity[j],
			Unit:       j,
			Threshold:  in.Threshold[j],
			Active:     in.Threshold[j] > 0,
			Reflectors: []int{},
			Met:        j < len(met) && met[j],
		}
		for i := range d.Serve {
			if d.Serve[i][j] {
				ps.Reflectors = append(ps.Reflectors, i)
			}
		}
		resp.Streams = append(resp.Streams, ps)
	}
	return resp
}

// tailWindows is how many consecutive windows a run's samples are split
// into for its tail percentiles.
const tailWindows = 8

// windowQuantile is the median of the q-quantiles of tailWindows
// consecutive windows of xs. A tail percentile taken this way moves with
// what a typical stretch of the run sees, not with the one GC burst, slow
// solve or heaviest epoch the whole run happened to catch.
func windowQuantile(xs []float64, q float64) float64 {
	if len(xs) < tailWindows {
		return quantile(xs, q)
	}
	qs := make([]float64, tailWindows)
	for k := range qs {
		qs[k] = quantile(xs[k*len(xs)/tailWindows:(k+1)*len(xs)/tailWindows], q)
	}
	return quantile(qs, 0.5)
}

// lookupRepeats is how often the batch workloads answer each viewer's
// placement; the median of the repeats is the viewer's sample, so a
// microsecond-scale answer is not read off one timer tick or GC assist.
const lookupRepeats = 5

// lookupAll answers the placement of every viewer from a solved design and
// returns each answer's wall in seconds: the batch workloads' read path.
func lookupAll(in *netmodel.Instance, d *netmodel.Design, met []bool, epoch int) ([]float64, error) {
	walls := make([]float64, in.NumViewers())
	reps := make([]float64, lookupRepeats)
	for g := range walls {
		for r := range reps {
			t := time.Now()
			if _, err := json.Marshal(placementOf(in, d, met, epoch, g)); err != nil {
				return nil, err
			}
			reps[r] = since(t)
		}
		walls[g] = quantile(reps, 0.5)
	}
	return walls, nil
}

// neverAnswered stands in for a percentile that falls on failed requests,
// which have no latency: they miss every limit.
const neverAnswered = 1e9

// finite makes a metric JSON-encodable: a percentile over no samples reads
// 0 and one that falls on failed requests reads neverAnswered.
func finite(v float64) float64 {
	switch {
	case math.IsNaN(v):
		return 0
	case math.IsInf(v, 0):
		return neverAnswered
	}
	return v
}
