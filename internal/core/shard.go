package core

import (
	"errors"
	"fmt"

	"repro/internal/lp"
	"repro/internal/lpmodel"
	"repro/internal/netmodel"
	"repro/internal/obs"
	"repro/internal/shard"
)

// shardSeedMix decorrelates per-shard randomized rounding. The constant
// differs from Solve's per-retry increment and Session's per-epoch
// increment so (shard, epoch, attempt) seed streams never collide.
const shardSeedMix = 0x94d049bb133111eb

// solveSharded is the decomposed pipeline: partition the instance into
// commodity-region shards, solve one full (LP + rounding + audit) pipeline
// per shard in parallel, reconcile shared reflector capacity, and audit the
// merged design against the full instance. Each per-shard solve is a plain
// monolithic Solve of the shard's sub-instance, so every paper guarantee
// holds per shard; because a shard only ever sees its own capacity
// allocation, the merged design keeps the ×4 fanout bound reflector by
// reflector.
//
// If coordination cannot feed some shard (its LP stays infeasible at the
// round cap), or the merged design misses the paper's guarantee on the full
// instance, the solve falls back to the monolithic pipeline — which either
// proves the instance itself infeasible or produces a design — and marks
// Result.ShardInfo.Fallback.
func solveSharded(in *netmodel.Instance, opts Options) (*Result, error) {
	k := opts.Shards
	// Clamp to real sinks: a viewer's streams are shard-atomic, so there
	// can never be more shards than viewers.
	if v := in.NumViewers(); k > v {
		k = v
	}
	sopts := shard.Options{
		Shards:  k,
		Workers: opts.ShardWorkers,
		Rounds:  opts.ShardRounds,
		Levels:  opts.ShardLevels,
	}
	hierarchical := opts.ShardLevels >= 2

	// localDirty is filled by the shard-partition stage: the epoch's global
	// dirty set routed through the stable sink partition, so a churn event
	// confined to one region reaches — and patches — only that region's
	// shard. It is read by the concurrent per-shard solves after the
	// partition stage completes (a happens-before established by the
	// sequential stage pipeline).
	var localDirty []*netmodel.DirtySet
	var ps *pipelineState

	solveFn := func(s int, sub *netmodel.Instance, warm *lp.Basis) (*shard.SolveResult, error) {
		shOpts := opts
		shOpts.Shards = 0
		shOpts.ShardState = nil
		shOpts.WarmStart = warm
		shOpts.Seed = opts.Seed + (uint64(s)+1)*shardSeedMix
		// The allocation counters are process-global, so per-shard numbers
		// gathered while shards co-run would be noise; the outer tracker
		// already accounts the parallel region as one stage.
		shOpts.StageMemStats = false
		// Nested solves trace under a per-shard child span but record no
		// metrics — the outer Result aggregates their stats, and Solve feeds
		// the registry exactly once from that aggregate.
		co, sp := ps.stageObs.TraceOnly().StartSpan("shard", obs.A("shard", s))
		defer sp.End()
		shOpts.Obs = co
		shOpts.patcher, shOpts.patchDirty = nil, nil
		if opts.IncrementalLP {
			if ps.plan.Patchers[s] == nil {
				ps.plan.Patchers[s] = lpmodel.NewPatcher()
			}
			shOpts.patcher = ps.plan.Patchers[s]
			if localDirty != nil {
				shOpts.patchDirty = localDirty[s]
			}
		}
		res, err := solveMono(sub, shOpts)
		if err != nil {
			return nil, err
		}
		var buildNS, patchNS int64
		for _, st := range res.Stages {
			switch st.Name {
			case "lp-build":
				buildNS += st.Wall.Nanoseconds()
			case "lp-patch":
				patchNS += st.Wall.Nanoseconds()
			}
		}
		sr := &shard.SolveResult{
			BuildWallNS: buildNS,
			PatchWallNS: patchNS,
			Design:      res.Design,
			Audit:       res.Audit,
			LPCost:      res.LPCost,
			RoundedCost: res.RoundedCost,
			Pivots:      res.Timings.LPPivots,
			Retries:     res.Retries,
			Vars:        res.Timings.TotalVars,
			Rows:        res.Timings.TotalRows,
			Basis:       res.WarmStartBasis(),
			LPStats:     res.LPStats,
			Patch:       res.Patch,
		}
		if frac := res.Frac; frac != nil && frac.CapDuals != nil {
			// The shard's capacity bid: the marginal objective value of one
			// more unit of fanout at each reflector, |dual|·ẑ_i (the dual
			// prices the row's rhs; an extra fanout unit scales with the
			// fractional build level). Zero where the row is slack.
			sr.CapPrice = make([]float64, len(frac.CapDuals))
			for i, y := range frac.CapDuals {
				if v := -y * frac.Z[i]; v > 0 {
					sr.CapPrice[i] = v
				}
			}
		}
		return sr, nil
	}

	ps = &pipelineState{in: in, opts: opts}
	tracker := newStageTracker(opts.StageMemStats, opts.Obs)
	stages := []Stage{
		{Name: "shard-partition", Run: func(ps *pipelineState) error {
			plan, err := shard.Prepare(in, sopts, opts.ShardState)
			ps.plan = plan
			if err != nil {
				return err
			}
			if opts.IncrementalLP {
				// The delta flow guarantees every instance mutation is in
				// the dirty set, so shards it doesn't route to can reuse
				// their cached sub-instance without re-extraction.
				localDirty = routeDirty(opts.patchDirty, plan.Sinks, in.NumSinks)
				plan.BindSubs(localDirty)
			} else {
				plan.BindSubs(nil)
			}
			return nil
		}},
		{Name: "shard-solve", Run: func(ps *pipelineState) error {
			return ps.plan.SolveAll(solveFn)
		}},
		{Name: "shard-coordinate", Run: func(ps *pipelineState) error {
			coordinate := ps.plan.Coordinate
			if hierarchical {
				coordinate = ps.plan.Exchange
			}
			out, err := coordinate(solveFn)
			if err != nil {
				return err
			}
			ps.shardOut = out
			ps.design = out.Design
			return nil
		}},
		{Name: "audit", Run: func(ps *pipelineState) error {
			ps.audit = netmodel.AuditDesign(in, ps.design)
			return nil
		}},
	}
	if hierarchical {
		// The exchange is a different coordination algorithm, so it runs —
		// and reports — under its own stage name; the flat stage list stays
		// byte-identical for existing consumers.
		stages[2].Name = "shard-exchange"
	}
	fallback := func() (*Result, error) {
		res, err := solveMono(in, opts)
		if err != nil {
			return nil, err
		}
		res.ShardInfo = &ShardInfo{Shards: k, Fallback: true}
		if hierarchical {
			res.ShardInfo.Levels = 2
		}
		return res, nil
	}
	if err := tracker.runAll(stages, ps); err != nil {
		if errors.Is(err, lpmodel.ErrInfeasible) {
			return fallback()
		}
		return nil, fmt.Errorf("core: %w", err)
	}
	// Every shard's design is audited against its own allocation, but the
	// merged design is what ships: if it misses the paper's guarantee on the
	// full instance, it is treated like a starved shard.
	if !MeetsGuarantee(ps.audit, usePathRounding(in, opts)) {
		return fallback()
	}

	out := ps.shardOut
	res := &Result{
		Design:       ps.design,
		Audit:        ps.audit,
		LPCost:       out.LPCost,
		RoundedCost:  out.RoundedCost,
		PathRounding: usePathRounding(in, opts),
		Retries:      out.Retries,
		Timings: Timings{
			LP:        tracker.wallOf("shard-solve") + tracker.wallOf(stages[2].Name),
			LPPivots:  out.Pivots,
			TotalVars: out.Vars,
			TotalRows: out.Rows,
		},
		Stages:  tracker.stats,
		LPStats: out.LPStats,
		ShardInfo: &ShardInfo{
			Shards:              ps.plan.Shards(),
			Rounds:              out.Rounds,
			Resolves:            out.Resolves,
			ConsolidatedBuilds:  out.ConsolidatedBuilds,
			PerShardPivots:      out.PerShardPivots,
			PerShardPatches:     out.PerShardPatches,
			PerShardRebuilds:    out.PerShardRebuilds,
			LPBuildNS:           out.LPBuildNS,
			LPPatchNS:           out.LPPatchNS,
			ExtractionsSkipped:  out.ExtractionsSkipped,
			PerShardStats:       out.PerShardStats,
			Levels:              out.Levels,
			ExchangeRounds:      out.ExchangeRounds,
			ContestedReflectors: out.ContestedReflectors,
			ExchangeGap:         out.ExchangeGap,
		},
		ShardState: out.State,
	}
	return res, nil
}

// routeDirty splits an epoch's global dirty set into per-shard sets keyed
// by the stable sink partition. Sink-dimension entries (thresholds,
// reflector→sink costs and losses) go to the owning shard with the sink
// re-indexed to its local id; reflector- and source-dimension cost/loss
// entries are shared state and broadcast to every shard. Fanout entries are
// dropped entirely: a shard's LP sees its capacity ALLOCATION, not the raw
// fanout, and the per-shard Patcher value-diffs the allocation itself
// (which also covers coordination re-splits the delta flow never sees).
// Shards with nothing routed to them get nil — their sync patches nothing.
func routeDirty(ds *netmodel.DirtySet, sinks [][]int, numSinks int) []*netmodel.DirtySet {
	k := len(sinks)
	out := make([]*netmodel.DirtySet, k)
	if ds.Empty() {
		return out
	}
	owner := make([]int, numSinks)
	local := make([]int, numSinks)
	for s, list := range sinks {
		for c, j := range list {
			owner[j], local[j] = s, c
		}
	}
	at := func(s int) *netmodel.DirtySet {
		if out[s] == nil {
			out[s] = &netmodel.DirtySet{}
		}
		return out[s]
	}
	for _, j := range ds.SinkDemand {
		at(owner[j]).SinkDemand = append(at(owner[j]).SinkDemand, local[j])
	}
	for _, j := range ds.SinkWeight {
		at(owner[j]).SinkWeight = append(at(owner[j]).SinkWeight, local[j])
	}
	for _, a := range ds.RefSinkCost {
		at(owner[a.B]).RefSinkCost = append(at(owner[a.B]).RefSinkCost, netmodel.Arc{A: a.A, B: local[a.B]})
	}
	for _, a := range ds.RefSinkLoss {
		at(owner[a.B]).RefSinkLoss = append(at(owner[a.B]).RefSinkLoss, netmodel.Arc{A: a.A, B: local[a.B]})
	}
	if len(ds.ReflectorCost) > 0 || len(ds.SrcRefCost) > 0 || len(ds.SrcRefLoss) > 0 {
		for s := 0; s < k; s++ {
			t := at(s)
			t.ReflectorCost = append(t.ReflectorCost, ds.ReflectorCost...)
			t.SrcRefCost = append(t.SrcRefCost, ds.SrcRefCost...)
			t.SrcRefLoss = append(t.SrcRefLoss, ds.SrcRefLoss...)
		}
	}
	return out
}
