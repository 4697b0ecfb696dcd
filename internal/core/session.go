package core

import (
	"repro/internal/agg"
	"repro/internal/lp"
	"repro/internal/lpmodel"
	"repro/internal/netmodel"
	"repro/internal/obs"
	"repro/internal/shard"
)

// Session is the re-solve loop of the §1.3 monitoring cycle: it carries the
// deployed design and the last simplex basis from epoch to epoch, so each
// Step is an incremental re-optimization instead of a cold solve. The live
// engine drives one Session per policy across a scenario timeline.
//
// A Session always solves with a fixed-shape LP (Options.LPFixedShape), so
// the carried basis stays warm-start compatible while sinks join and leave.
//
// With Options.IncrementalLP the Session additionally carries the BUILT LP
// across epochs: a persistent lpmodel.Patcher (or one per shard, inside the
// shard.State) rewrites only the coefficients churn touched instead of
// rebuilding the constraint matrix, turning the per-epoch model cost from
// O(instance) into O(delta). The contract is the delta flow: callers that
// mutate the instance between Steps must report the dirty sets through
// Observe — netmodel.Delta.Apply returns them — or the patched LP goes
// stale. The stickiness bias is handled internally: Step diffs the deployed
// design against the previous epoch's and feeds the flipped cost cells into
// the same dirty stream (netmodel.DiffDesigns).
type Session struct {
	// Stickiness is the cost discount applied to the deployed design on
	// every Step (see Reoptimize); must be in [0,1).
	Stickiness float64
	// WarmStart re-seeds each Step's simplex from the previous Step's
	// final basis. Off means every epoch solves the LP from scratch.
	WarmStart bool

	opts  Options
	prior *netmodel.Design
	basis *lp.Basis
	// shardState is the sharded-path analogue of basis: the partition,
	// capacity split, per-shard bases, and per-shard patchers of the
	// previous epoch (nil when the session solves monolithically, see
	// Options.Shards).
	shardState *shard.State
	steps      int

	// patcher is the monolithic incremental-rebuild state; pending
	// accumulates dirty sets reported via Observe since the last Step;
	// lastBias remembers which design's arcs were discounted in the
	// previous Step's LP, so the next Step can patch exactly the flips.
	patcher  *lpmodel.Patcher
	pending  *netmodel.DirtySet
	lastBias *netmodel.Design

	// aggState / aggPrior are the aggregation plane (Options.Aggregate):
	// the persistent viewer→super-sink fold, built lazily on the first
	// Step, and the previously deployed AGGREGATE design — the plane the
	// stickiness bias, the warm basis, the shard state and the Patcher all
	// live on. s.prior stays the TRUE design: churn and the deployed view
	// are always reported against real viewers.
	aggState *agg.State
	aggPrior *netmodel.Design
}

// NewSession returns a fresh session; the first Step is a cold solve.
func NewSession(opts Options, stickiness float64, warmStart bool) *Session {
	opts.LPFixedShape = true
	s := &Session{Stickiness: stickiness, WarmStart: warmStart, opts: opts}
	if opts.IncrementalLP && opts.Shards < 2 {
		s.patcher = lpmodel.NewPatcher()
	}
	return s
}

// Steps returns how many epochs the session has solved.
func (s *Session) Steps() int { return s.steps }

// Deployed returns the currently deployed design (nil before the first Step).
func (s *Session) Deployed() *netmodel.Design { return s.prior }

// Incremental reports whether the session patches its LP in place.
func (s *Session) Incremental() bool { return s.opts.IncrementalLP }

// SetObserver replaces the observability sink of subsequent Steps. The live
// engine calls it once per epoch with an observer derived from that epoch's
// trace span, so the core stage spans nest under the right epoch.
func (s *Session) SetObserver(o *obs.Observer) { s.opts.Obs = o }

// Observe records a mutation of the instance the session is tracking, as a
// dirty set (typically the return of netmodel.Delta.Apply). The accumulated
// set drives the next Step's lp-patch stage; without IncrementalLP it is a
// no-op. Observing a superset of the real changes is always safe.
// Under Options.Aggregate the dirty sets additionally keep the persistent
// aggregation in sync, so reporting them is required there regardless of
// IncrementalLP — an unreported mutation would leave the aggregate instance
// summarizing stale member state.
func (s *Session) Observe(ds *netmodel.DirtySet) {
	if (!s.opts.IncrementalLP && s.opts.Aggregate == nil) || ds.Empty() {
		return
	}
	if s.pending == nil {
		s.pending = &netmodel.DirtySet{}
	}
	s.pending.Merge(ds)
}

// Step re-optimizes against the instance's current state — the caller
// applies the epoch's deltas to in beforehand (reporting them via Observe
// under IncrementalLP) — and deploys the result. The returned churn counts
// compare against the previous epoch's design.
//
// Under Options.Aggregate the epoch is bracketed by the aggregate and
// disaggregate stages: the accumulated dirty sets are folded through the
// persistent viewer→super-sink state, the re-optimization — stickiness
// bias, warm basis, shard state, incremental Patcher — runs entirely over
// the aggregate instance, and the solved aggregate design is disaggregated
// back to real viewers, sticky to the previous TRUE deployment. Churn and
// the audit are then reported against the true instance.
func (s *Session) Step(in *netmodel.Instance) (*ReoptimizeResult, error) {
	dirty := s.pending
	s.pending = nil
	var fold *aggWrap
	if s.opts.Aggregate != nil {
		var err error
		fold, err = foldAgg(in, s.opts, func() (*agg.State, error) {
			if s.aggState == nil {
				// First epoch: Build summarizes the instance's current state
				// directly, so dirt accumulated before it is already folded in.
				st, err := agg.Build(in, *s.opts.Aggregate)
				s.aggState, dirty = st, &netmodel.DirtySet{}
				return st, err
			}
			dirty = s.aggState.Sync(in, dirty)
			return s.aggState, nil
		})
		if err != nil {
			return nil, err
		}
		s.opts.Obs.Counter(obs.MAggWeightChanges).Add(float64(len(dirty.SinkWeight)))
	}
	plane, planePrior := s.plane(in)

	opts := s.opts
	opts.Aggregate = nil
	if s.WarmStart {
		opts.WarmStart = s.basis
		opts.ShardState = s.shardState
	} else {
		// A cold session must not inherit a caller-supplied basis either:
		// cold means every epoch's simplex starts from scratch — including
		// the sharded path's partition and capacity split.
		opts.WarmStart = nil
		opts.ShardState = nil
	}
	if opts.IncrementalLP {
		// The stickiness discount moves with the deployed design: cost
		// cells enter or leave the discounted set exactly where the new
		// bias design differs from the previous epoch's. Those flips are
		// instance changes the delta flow never sees, so they join the
		// dirty stream here.
		var bias *netmodel.Design
		if s.Stickiness > 0 {
			bias = planePrior
		}
		if flips := netmodel.DiffDesigns(s.lastBias, bias); flips != nil {
			opts.Obs.Counter(obs.MBiasFlips).Add(float64(flips.Size()))
			if dirty == nil {
				dirty = &netmodel.DirtySet{}
			}
			dirty.Merge(flips)
		}
		s.lastBias = bias
		opts.patcher = s.patcher
		opts.patchDirty = dirty
	}
	// Per-epoch seed decorrelates the randomized rounding across epochs
	// while keeping the whole timeline a pure function of the base seed.
	// The mixing constant deliberately differs from Solve's per-retry
	// increment so (epoch, attempt) pairs never replay each other's seeds.
	opts.Seed = s.opts.Seed + uint64(s.steps)*0xbf58476d1ce4e5b9
	// With no prior deployment Reoptimize applies no bias; the stickiness
	// still gets range-checked there, so an invalid policy fails on the
	// first step instead of being silently coerced.
	res, err := Reoptimize(plane, planePrior, s.Stickiness, opts)
	if err != nil {
		return nil, err
	}

	if fold != nil {
		if opts.IncrementalLP && lpFree(res.Result) {
			opts.Obs.Counter(obs.MAggLPFreeEpochs).Inc()
		}
		s.aggPrior = res.Design
		if err := fold.unfold(res.Result, s.prior); err != nil {
			return nil, err
		}
		// Reoptimize's churn counts describe super-sinks, not viewers.
		res.countChurn(in, s.prior)
	}
	s.prior = res.Design
	s.basis = res.WarmStartBasis()
	s.shardState = res.ShardState
	s.steps++
	return res, nil
}

// plane returns the instance the session's LP state lives on and the
// design deployed there: the aggregate instance and design once the
// aggregation fold exists (Options.Aggregate), the true instance and
// design otherwise.
func (s *Session) plane(in *netmodel.Instance) (*netmodel.Instance, *netmodel.Design) {
	if s.aggState != nil {
		return s.aggState.Agg, s.aggPrior
	}
	return in, s.prior
}

// lpFree reports whether an incremental solve left the LP untouched: the
// carried model was neither rebuilt nor patched — on every shard — and the
// simplex spent no pivots.
func lpFree(res *Result) bool {
	untouched := res.Patch != nil && !res.Patch.Rebuilt && res.Patch.Patches() == 0
	if si := res.ShardInfo; si != nil && !si.Fallback {
		untouched = true
		for k := range si.PerShardRebuilds {
			untouched = untouched && si.PerShardRebuilds[k] == 0 && si.PerShardPatches[k] == 0
		}
	}
	return untouched && res.Timings.LPPivots == 0
}
