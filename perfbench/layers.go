package main

import (
	"runtime"
	"strings"

	"repro/internal/core"
)

// zeroLayers sets every per-layer metric to 0, the value of a layer the
// workload does not exercise; the workload then fills in its own layers.
func zeroLayers(m map[string]float64) {
	for _, d := range perLayer {
		if !strings.HasPrefix(d.name, "trace.overhead.") {
			m[d.name] = 0
		}
	}
}

// stageWall is the wall of one named pipeline stage of a solve, in seconds,
// from the counters core.Result.Stages returns.
func stageWall(res *core.Result, name string) float64 {
	t := 0.0
	for _, st := range res.Stages {
		if st.Name == name {
			t += st.Wall.Seconds()
		}
	}
	return t
}

// runtimeMark brackets a traced pass to read the Go runtime's GC pause and
// allocation totals across it.
type runtimeMark struct{ before runtime.MemStats }

type runtimeStats struct {
	gcPauseS, allocPerOp float64
}

func (r *runtimeMark) start() { runtime.ReadMemStats(&r.before) }

// done returns the pass's total GC pause and its allocated bytes per
// operation.
func (r *runtimeMark) done(ops int) runtimeStats {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	return runtimeStats{
		gcPauseS:   float64(after.PauseTotalNs-r.before.PauseTotalNs) / 1e9,
		allocPerOp: ratio(float64(after.TotalAlloc-r.before.TotalAlloc), float64(ops)),
	}
}

func (s runtimeStats) report(m map[string]float64) {
	m["runtime.gc_pause_s"] = s.gcPauseS
	m["runtime.alloc_bytes_per_op"] = s.allocPerOp
}
