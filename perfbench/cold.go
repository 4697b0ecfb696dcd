package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/gapflow"
	"repro/internal/gen"
	"repro/internal/lp"
	"repro/internal/lpmodel"
	"repro/internal/netmodel"
	"repro/internal/round"
	"repro/internal/stround"
)

// coldProvision solves fresh gen.Clustered instances once each with
// core.Solve at default options: 2 sources, 6 regions × 5 ISPs, 12 sinks per
// region (R=30, D=72), colors kept so §6.5 path rounding runs. The LP solve
// is nearly the whole wall here; patching, warm starts, sharding,
// aggregation and the daemon do no work.
//
// One instance is one epoch of batch provisioning: its JSON document is due,
// is decoded and validated (ingest), solved, and every viewer's placement
// answered from the design (placement); the publish lag runs from due to the
// last answer. One instance's solve ranges over 2.5× at this shape, so the
// run solves 48 instances: with 30, the epoch p90 and publish-lag p99 moved
// by up to 0.19 of their median from seed to seed. On a machine too slow to
// solve them all within 1.5 × --seconds, the run stops there. A cold
// provisioning places every active viewer, so viewer churn counts the
// viewers each instance places.
func coldProvision(b *bench) error {
	cfg, n := gen.DefaultClustered(2, 6, 5, 12), 48
	if b.tiny {
		cfg, n = gen.DefaultClustered(2, 2, 2, 3), 3
	}
	if b.traced {
		n = max(1, n/2)
	}
	var docs [][]byte
	err := b.measureSetup(5, nil, func(int) error {
		docs = make([][]byte, n)
		for k := range docs {
			var buf bytes.Buffer
			if err := gen.Clustered(cfg, mix(b.seed, uint64(k))).WriteJSON(&buf); err != nil {
				return err
			}
			docs[k] = buf.Bytes()
		}
		return nil
	})
	if err != nil {
		return err
	}

	var ms runtimeMark
	ms.start()
	s := &samples{}
	lay := &coldLayers{}
	start := time.Now()
	for k, doc := range docs {
		if k > 0 && time.Since(start) > 3*b.budget/2 {
			break
		}
		root := b.tr.begin("cold.instance", nil)
		due := time.Now()
		var in *netmodel.Instance
		b.tr.wrap("netmodel.ReadJSON", root, func() { in, err = netmodel.ReadJSON(bytes.NewReader(doc)) })
		decodes := []float64{since(due)}
		if err != nil {
			b.op(fmt.Errorf("instance %d: %w", k, err))
			root.end()
			continue
		}
		t := time.Now()
		var res *core.Result
		b.tr.wrap("core.Solve", root, func() { res, err = core.Solve(in, core.DefaultOptions(mix(b.seed, uint64(1000+k)))) })
		s.solve = append(s.solve, since(t))
		if err != nil {
			b.op(fmt.Errorf("instance %d: %w", k, err))
			root.end()
			continue
		}
		// The solve leaves a collection debt that the microsecond lookups
		// and decodes after it would otherwise pay, by how much garbage this
		// instance's LP made; the collection is not part of the epoch.
		solved := time.Now()
		runtime.GC()
		gc := time.Since(solved)
		var walls []float64
		b.tr.wrap("placement.lookups", root, func() { walls, err = lookupAll(in, res.Design, res.Audit.Met, 0) })
		epoch := (time.Since(due) - gc).Seconds()
		b.op(err)
		s.epoch = append(s.epoch, epoch)
		s.lag = append(s.lag, epoch)
		s.place = append(s.place, walls...)
		s.churn = append(s.churn, float64(res.Audit.Viewers))

		b.tr.wrap("netmodel.AuditDesign", root, func() { err = checkDesign(in, res.Design, res.PathRounding, res.Audit) })
		if err != nil {
			b.fail(fmt.Errorf("instance %d: %w", k, err))
		}
		s.cost = append(s.cost, res.Audit.Cost)
		s.costRatio = append(s.costRatio, res.Audit.Cost/res.LPCost)

		// The document's ingest sample is the median of ten decodes, so it
		// is not read off whichever GC cycle the first one met.
		for r := 0; r < 9; r++ {
			t := time.Now()
			b.tr.wrap("netmodel.ReadJSON", root, func() { _, err = netmodel.ReadJSON(bytes.NewReader(doc)) })
			decodes = append(decodes, since(t))
			if err != nil {
				b.fail(fmt.Errorf("instance %d re-decode: %w", k, err))
			}
		}
		s.ingest = append(s.ingest, quantile(decodes, 0.5))
		if b.tr != nil {
			if err := lay.add(b, root, in, res, mix(b.seed, uint64(2000+k))); err != nil {
				b.fail(fmt.Errorf("instance %d layers: %w", k, err))
			}
		}
		root.end()
	}
	b.report(s)
	if b.tr != nil {
		lay.report(b, ms.done(len(s.solve)))
	}
	return nil
}

// checkDesign re-audits a design independently of the solver's verdict:
// structure, the paper's guarantee (weight ≥ W/4, fanout ≤ 4F, or the §6.5
// additive form under path rounding), and the reported cost.
func checkDesign(in *netmodel.Instance, d *netmodel.Design, pathRounding bool, reported netmodel.Audit) error {
	a := netmodel.AuditDesign(in, d)
	switch {
	case !a.StructureOK:
		return fmt.Errorf("design violates serve ⇒ ingest ⇒ build")
	case !core.MeetsGuarantee(a, pathRounding):
		return fmt.Errorf("design misses the guarantee: weight factor %.3f, fanout factor %.3f", a.WeightFactor, a.FanoutFactor)
	case math.Abs(a.Cost-reported.Cost) > 1e-6*math.Max(1, math.Abs(a.Cost)):
		return fmt.Errorf("audited cost %.6f differs from the reported %.6f", a.Cost, reported.Cost)
	}
	return nil
}

// replayRounding replays the randomized tail (§3 rounding, then §6.5 path
// rounding or the §5 GAP flow) on an LP optimum, timing each call.
func replayRounding(b *bench, parent *span, in *netmodel.Instance, frac *lpmodel.FracSolution, pathRounding bool, seed uint64) error {
	var r *round.Rounded
	b.tr.wrap("round.Apply", parent, func() { r = round.Apply(in, frac, round.DefaultOptions(seed)) })
	if !pathRounding {
		b.tr.wrap("gapflow.Round", parent, func() { gapflow.Round(in, r.XBar) })
		return nil
	}
	var err error
	b.tr.wrap("stround.Round", parent, func() { _, err = stround.Round(in, r.XBar, stround.DefaultOptions(seed^0xabcdef)) })
	return err
}

// coldLayers accumulates the traced pass's per-layer observations: the
// counters core.Solve returns, plus a replay of its LP head through the
// public lpmodel calls (timed as spans).
type coldLayers struct {
	solves                             int
	pivots, refactors, devex, retries  float64
	lpSolveWall, repairWall, rows, nnz float64
}

func (l *coldLayers) add(b *bench, root *span, in *netmodel.Instance, res *core.Result, seed uint64) error {
	l.solves++
	l.pivots += float64(res.Timings.LPPivots)
	l.refactors += float64(res.LPStats.Refactorizations)
	l.devex += float64(res.LPStats.DevexResets)
	l.retries += float64(res.Retries)
	l.lpSolveWall += stageWall(res, "lp-solve")
	l.repairWall += stageWall(res, "repair")
	b.tr.wrap("netmodel.Instance.Validate", root, func() { _ = in.Validate() })

	var p *lp.Problem
	var vm *lpmodel.VarMap
	b.tr.wrap("lpmodel.Build", root, func() { p, vm = lpmodel.Build(in, lpmodel.DefaultOptions(in)) })
	l.rows += float64(p.NumRows())
	for r := 0; r < p.NumRows(); r++ {
		l.nnz += float64(p.RowLen(r))
	}
	var frac *lpmodel.FracSolution
	var err error
	b.tr.wrap("lpmodel.SolveBuiltOpts", root, func() { frac, err = lpmodel.SolveBuiltOpts(in, p, vm, lp.Options{}) })
	if err != nil {
		return err
	}
	return replayRounding(b, root, in, frac, res.PathRounding, seed)
}

func (l *coldLayers) report(b *bench, rt runtimeStats) {
	n := float64(max(l.solves, 1))
	m := b.layer
	zeroLayers(m)
	m["lp.solve_s"] = b.tr.meanS("lpmodel.SolveBuiltOpts")
	m["lp.pivots"] = l.pivots / n
	m["lp.s_per_pivot"] = ratio(l.lpSolveWall, l.pivots)
	m["lp.refactorizations"] = l.refactors / n
	m["lp.devex_resets"] = l.devex / n
	m["lpmodel.build_s"] = b.tr.meanS("lpmodel.Build")
	m["lpmodel.rows"] = l.rows / n
	m["lpmodel.nnz"] = l.nnz / n
	m["round.apply_s"] = b.tr.meanS("round.Apply")
	m["stround.round_s"] = b.tr.meanS("stround.Round")
	m["core.repair_s"] = l.repairWall / n
	m["core.audit_retries"] = l.retries / n
	m["core.attempts_per_design"] = (l.retries + float64(l.solves)) / n
	m["netmodel.decode_s"] = b.tr.meanS("netmodel.ReadJSON")
	m["netmodel.validate_s"] = b.tr.meanS("netmodel.Instance.Validate")
	m["netmodel.audit_s"] = b.tr.meanS("netmodel.AuditDesign")
	rt.report(m)
}
