package core

import (
	"fmt"

	"repro/internal/agg"
	"repro/internal/netmodel"
	"repro/internal/obs"
)

// aggWrap brackets a solve over the aggregation plane (Options.Aggregate)
// with the aggregate and disaggregate stages. The one-shot pipeline and
// Session epochs share it: foldAgg runs the aggregate stage, the caller
// solves the aggregate instance, and unfold maps the design back to real
// viewers. The two stage walls join Result.Stages around the inner
// pipeline's.
type aggWrap struct {
	tracker *stageTracker
	ps      *pipelineState
	st      *agg.State
}

// foldAgg runs the aggregate stage: fold builds (one-shot) or syncs
// (Session) the viewer→super-sink state whose Agg instance the caller then
// solves.
func foldAgg(in *netmodel.Instance, opts Options, fold func() (*agg.State, error)) (*aggWrap, error) {
	w := &aggWrap{
		tracker: newStageTracker(opts.StageMemStats, opts.Obs),
		ps:      &pipelineState{in: in, opts: opts},
	}
	if err := w.tracker.run(Stage{Name: "aggregate", Run: func(*pipelineState) error {
		var err error
		w.st, err = fold()
		return err
	}}, w.ps); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	recordAggShape(opts.Obs, w.st)
	return w, nil
}

// unfold runs the disaggregate stage on res, the solve of the aggregate
// instance: its design is disaggregated back to real viewers, sticky to
// prior (the previous true deployment, nil for a one-shot solve), and
// re-audited against the true instance. An LPOnly solve has no design to
// map and only gains the aggregate stage.
func (w *aggWrap) unfold(res *Result, prior *netmodel.Design) error {
	if w.ps.opts.LPOnly {
		res.Stages = append(w.tracker.stats, res.Stages...)
		return nil
	}
	if err := w.tracker.run(Stage{Name: "disaggregate", Run: func(ps *pipelineState) error {
		res.Design = w.st.Disaggregate(ps.in, res.Design, prior)
		res.Audit = netmodel.AuditDesign(ps.in, res.Design)
		return nil
	}}, w.ps); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	res.Stages = append(append([]StageStats{w.tracker.stats[0]}, res.Stages...), w.tracker.stats[1])
	return nil
}

// solveAggregated is the one-shot aggregated pipeline: fold viewers into
// weighted super-sinks (internal/agg), run the ordinary pipeline — sharded
// or monolithic — over the aggregate instance, then disaggregate the design
// back to real viewers. Session epochs wrap the same stages around a
// persistent aggregation instead of rebuilding it from scratch.
func solveAggregated(in *netmodel.Instance, opts Options) (*Result, error) {
	w, err := foldAgg(in, opts, func() (*agg.State, error) {
		return agg.Build(in, *opts.Aggregate)
	})
	if err != nil {
		return nil, err
	}
	inner := opts
	inner.Aggregate = nil
	res, err := solveDirect(w.st.Agg, inner)
	if err == nil {
		err = w.unfold(res, nil)
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

// recordAggShape publishes the aggregation's fold factor to the registry.
func recordAggShape(o *obs.Observer, st *agg.State) {
	if o == nil || o.Reg == nil {
		return
	}
	o.Gauge(obs.MAggGroups).Set(float64(st.Groups()))
	o.Gauge(obs.MAggUnits).Set(float64(st.Units()))
}
