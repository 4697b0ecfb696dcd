package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand/v2"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/netmodel"
	"repro/internal/obs"
	"repro/internal/shard"
)

// churnEpochs drives a generated timeline through core.Session.Step, with
// Delta.Validate + Delta.Apply + Session.Observe for every delta between
// epochs, under warm+sticky 0.4, IncrementalLP, 8 shards and the two-level
// dual-price exchange. The topology is R=100 (2 reflectors per colo) and
// 100 sinks, fanout ⌈3D/R⌉ floored at 2, colors stripped. The same LP layer
// as cold-provision runs warm and patched here, so factorization adoption,
// the exchange and dirty routing per shard set the epoch wall.
//
// An epoch's deltas are due when it starts: ingest times each delta, the
// epoch wall runs from due to the deployed design, and the publish lag
// further to the last placement answer.
func churnEpochs(b *bench) error {
	cfg := gen.DefaultClustered(2, 10, 5, 10)
	epochs := 120
	if b.tiny {
		cfg, epochs = gen.DefaultClustered(2, 2, 2, 4), 6
	}
	cfg.ReflectorsPerColo = 2
	R, D := cfg.Regions*cfg.ISPs*cfg.ReflectorsPerColo, cfg.Regions*cfg.SinksPerRegion
	cfg.Fanout = max(2, (3*D+R-1)/R)
	if b.traced {
		epochs = max(2, epochs/2)
	}

	opts := core.DefaultOptions(mix(b.seed, 7))
	opts.IncrementalLP = true
	opts.Shards = 8
	opts.ShardLevels = 2
	var in *netmodel.Instance
	var tl [][]netmodel.Delta
	var sess *core.Session
	var res0 *core.ReoptimizeResult
	err := b.measureSetup(3, nil, func(int) error {
		var l gen.Layout
		in, l = gen.ClusteredWithLayout(cfg, mix(b.seed, 1))
		in.Color, in.NumColors = nil, 0
		tl = churnTimeline(in, l, cfg.Regions, epochs, mix(b.seed, 2))
		sess = core.NewSession(opts, 0.4, true)
		var err error
		res0, err = sess.Step(in)
		return err
	})
	if err != nil {
		return err
	}
	b.op(nil)
	if err := checkDesign(in, res0.Design, res0.PathRounding, res0.Audit); err != nil {
		b.fail(fmt.Errorf("epoch 0: %w", err))
	}

	var ms runtimeMark
	ms.start()
	s := &samples{}
	lay := &churnLayers{}
	var otrace bytes.Buffer
	if b.tr != nil {
		sess.SetObserver(&obs.Observer{Tr: obs.NewTracer(&otrace)})
	}
	start := time.Now()
	for e := 1; e <= epochs; e++ {
		if e > 1 && time.Since(start) > 2*b.budget {
			break
		}
		root := b.tr.begin("churn.epoch", nil)
		due := time.Now()
		for i := range tl[e] {
			d := &tl[e][i]
			t := time.Now()
			var ds *netmodel.DirtySet
			b.tr.wrap("netmodel.Delta.Validate", root, func() { err = d.Validate(in) })
			if err == nil {
				b.tr.wrap("netmodel.Delta.Apply", root, func() { ds, err = d.Apply(in) })
			}
			if err == nil {
				b.tr.wrap("core.Session.Observe", root, func() { sess.Observe(ds) })
			}
			s.ingest = append(s.ingest, since(t))
			b.op(err)
		}
		t := time.Now()
		var res *core.ReoptimizeResult
		b.tr.wrap("core.Session.Step", root, func() { res, err = sess.Step(in) })
		s.solve = append(s.solve, since(t))
		if err != nil {
			b.op(fmt.Errorf("epoch %d: %w", e, err))
			root.end()
			continue
		}
		epoch := since(due)
		var walls []float64
		b.tr.wrap("placement.lookups", root, func() { walls, err = lookupAll(in, res.Design, res.Audit.Met, e) })
		s.lag = append(s.lag, since(due))
		b.op(err)
		s.epoch = append(s.epoch, epoch)
		s.place = append(s.place, walls...)

		b.tr.wrap("netmodel.AuditDesign", root, func() { err = checkDesign(in, res.Design, res.PathRounding, res.Audit) })
		if err != nil {
			b.fail(fmt.Errorf("epoch %d: %w", e, err))
		}
		s.cost = append(s.cost, res.Audit.Cost)
		s.costRatio = append(s.costRatio, res.Audit.Cost/res.LPCost)
		s.churn = append(s.churn, res.ViewerChurn)
		if b.tr != nil {
			b.tr.wrap("shard.PartitionSinks", root, func() { shard.PartitionSinks(in, opts.Shards) })
			if err := lay.add(res, &otrace); err != nil {
				return fmt.Errorf("epoch %d: reading solver trace: %w", e, err)
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

// churnTimeline generates the deltas due before each epoch 1..epochs:
// single-viewer joins and leaves every epoch, repricing of a few delivery
// arcs, a flash crowd in one region (joins in three waves, leaving together
// later), and reflector outages every ten epochs, each recovering four
// epochs later. A quarter of the viewers start inactive.
func churnTimeline(in *netmodel.Instance, l gen.Layout, regions, epochs int, seed uint64) [][]netmodel.Delta {
	rng := rand.New(rand.NewPCG(seed, 0xc4a2))
	D, R := in.NumSinks, in.NumReflectors
	target := append([]float64(nil), in.Threshold...)
	active := make([]bool, D)
	for j := range active {
		active[j] = rng.Float64() >= 0.25
		if !active[j] {
			in.Threshold[j] = 0
		}
	}
	toggle := func(js []int, note string) netmodel.Delta {
		d := netmodel.Delta{Note: note}
		for _, j := range js {
			v := target[j]
			if active[j] {
				v = 0
			}
			active[j] = !active[j]
			d.SetThreshold = append(d.SetThreshold, netmodel.SinkValue{Sink: j, Value: v})
		}
		return d
	}
	tl := make([][]netmodel.Delta, epochs+1)
	at := func(e int, d netmodel.Delta) {
		if e >= 1 && e <= epochs && !d.Empty() {
			tl[e] = append(tl[e], d)
		}
	}

	crowdRegion, crowdStart := rng.IntN(regions), max(1, epochs/3)
	crowdEnd := crowdStart + max(3, epochs/4)
	var crowd []int
	down := map[int]bool{}
	recovers := map[int]int{} // epoch → reflector back up
	for e := 1; e <= epochs; e++ {
		if i, ok := recovers[e]; ok {
			delete(down, i)
		}
		for k := 0; k < 3; k++ {
			at(e, toggle([]int{rng.IntN(D)}, "viewer join/leave"))
		}
		price := netmodel.Delta{Note: "arc repricing"}
		for k := 0; k < 3; k++ {
			price.ScaleRefSinkCost = append(price.ScaleRefSinkCost, netmodel.ArcValue{
				A: rng.IntN(R), B: rng.IntN(D), Value: math.Exp(0.2*rng.Float64() - 0.1)})
		}
		at(e, price)
		if e >= crowdStart && e < crowdStart+3 {
			var wave []int
			for j := 0; j < D; j++ {
				if l.SinkRegion[j] == crowdRegion && !active[j] && rng.IntN(3) == 0 {
					wave = append(wave, j)
				}
			}
			crowd = append(crowd, wave...)
			at(e, toggle(wave, "flash crowd join wave"))
		}
		if e == crowdEnd {
			var leave []int
			for _, j := range crowd {
				if active[j] {
					leave = append(leave, j)
				}
			}
			at(e, toggle(leave, "flash crowd leaves"))
		}
		if e%10 == 5 {
			i := rng.IntN(R)
			for down[i] {
				i = (i + 1) % R
			}
			down[i] = true
			at(e, netmodel.Delta{Note: "reflector outage", SetFanout: []netmodel.RefValue{{Ref: i, Value: 0}}})
			at(e+4, netmodel.Delta{Note: "reflector recovery", SetFanout: []netmodel.RefValue{{Ref: i, Value: in.Fanout[i]}}})
			recovers[e+4] = i
		}
	}
	return tl
}

// churnLayers accumulates the traced pass's per-layer observations from
// the counters each Step returns and from the stage spans the solver
// writes to its own tracer (core.Options.Obs), read back per epoch.
type churnLayers struct {
	epochs                                       int
	pivots, refactors, devex, ftUpdates          float64
	buildNS, patchNS, patched, rebuilds          float64
	partition, shardSolve, exchange              float64
	exRounds, resolves, skipped, shards, contest float64
	lpSolve, lpSolves, round, rounds, repair     float64
	designs                                      float64
}

func (l *churnLayers) add(res *core.ReoptimizeResult, otrace *bytes.Buffer) error {
	recs, err := obs.ReadTrace(otrace)
	otrace.Reset()
	if err != nil {
		return err
	}
	// Every per-shard solve is a pipeline under its own span; the round
	// stages under one parent are the audit attempts behind one design.
	designs := map[uint64]bool{}
	for _, r := range recs {
		switch r.Name {
		case "lp-solve":
			l.lpSolve += float64(r.DurNS) / 1e9
			l.lpSolves++
		case "round":
			l.round += float64(r.DurNS) / 1e9
			l.rounds++
			designs[r.Parent] = true
		case "repair":
			l.repair += float64(r.DurNS) / 1e9
		}
	}
	l.designs += float64(len(designs))
	l.epochs++
	l.pivots += float64(res.Timings.LPPivots)
	l.refactors += float64(res.LPStats.Refactorizations)
	l.devex += float64(res.LPStats.DevexResets)
	l.ftUpdates += float64(res.LPStats.FTUpdates)
	l.partition += stageWall(res.Result, "shard-partition")
	l.shardSolve += stageWall(res.Result, "shard-solve")
	l.exchange += stageWall(res.Result, "shard-exchange")
	if si := res.ShardInfo; si != nil {
		l.buildNS += float64(si.LPBuildNS)
		l.patchNS += float64(si.LPPatchNS)
		for _, n := range si.PerShardPatches {
			l.patched += float64(n)
		}
		for _, n := range si.PerShardRebuilds {
			l.rebuilds += float64(n)
		}
		l.exRounds += float64(si.ExchangeRounds)
		l.resolves += float64(si.Resolves)
		l.skipped += float64(si.ExtractionsSkipped)
		l.shards += float64(si.Shards)
		l.contest += float64(si.ContestedReflectors)
	}
	return nil
}

func (l *churnLayers) report(b *bench, rt runtimeStats) {
	n := float64(max(l.epochs, 1))
	m := b.layer
	zeroLayers(m)
	m["lp.solve_s"] = l.lpSolve / n
	m["lp.pivots"] = l.pivots / n
	m["lp.s_per_pivot"] = ratio(l.lpSolve, l.pivots)
	m["lp.refactorizations"] = l.refactors / n
	m["lp.devex_resets"] = l.devex / n
	m["lp.ft_adoption_share"] = ratio(l.ftUpdates, l.lpSolves)
	m["lpmodel.build_s"] = l.buildNS / 1e9 / n
	m["lpmodel.patch_s"] = l.patchNS / 1e9 / n
	m["lpmodel.patched_cells"] = l.patched / n
	m["lpmodel.rebuilds"] = l.rebuilds / n
	m["round.apply_s"] = l.round / n
	m["core.repair_s"] = l.repair / n
	m["core.audit_retries"] = (l.rounds - l.designs) / n
	m["core.attempts_per_design"] = ratio(l.rounds, l.designs)
	m["shard.partition_s"] = l.partition / n
	m["shard.solve_s"] = l.shardSolve / n
	m["shard.exchange_s"] = l.exchange / n
	m["shard.exchange_rounds"] = l.exRounds / n
	m["shard.resolves_per_epoch"] = l.resolves / n
	m["shard.extractions_skipped_share"] = ratio(l.skipped, l.shards)
	m["shard.contested_reflectors"] = l.contest / n
	m["netmodel.validate_s"] = b.tr.meanS("netmodel.Delta.Validate")
	m["netmodel.apply_s"] = b.tr.meanS("netmodel.Delta.Apply")
	m["netmodel.audit_s"] = b.tr.meanS("netmodel.AuditDesign")
	rt.report(m)
}
