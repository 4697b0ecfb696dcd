package live

import (
	"fmt"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/netmodel"
	"repro/internal/obs"
)

// Engine is one epoch of §1.3's monitoring loop, the single place where
// churn meets the solver: Step applies the epoch's deltas to the evolving
// instance, re-solves through the session inside an "epoch" trace span,
// certifies the design, judges availability, and feeds the per-epoch
// metrics. Run drives one Engine over a fixed scenario; the overlayd daemon
// drives one over its ingest queue — so the daemon's epoch stream equals a
// replay of its exported scenario by construction.
type Engine struct {
	// In is the evolving instance; Step mutates it in place.
	In *netmodel.Instance
	// Session carries the deployed design, basis and incremental LP.
	Session *core.Session
	// SLO judges each solved epoch's availability.
	SLO *SLOTracker

	obs *obs.Observer
	// carry holds the events and edits of deltas already applied whose
	// solve failed: they belong to the next epoch that solves, exactly as a
	// replay of the event log would schedule them.
	carry EpochReport
}

// NewEngine wires an engine over in (not copied) and sess. A nil o runs
// unobserved; otherwise the canonical metric families are registered.
func NewEngine(in *netmodel.Instance, sess *core.Session, slo *SLOTracker, o *obs.Observer) *Engine {
	obs.Canonical(o.Registry())
	return &Engine{In: in, Session: sess, SLO: slo, obs: o}
}

// Step advances one epoch: the deltas are applied in order (each reported
// to the session for the incremental LP), the session re-solves, and the
// epoch's report is returned with the solver result behind it. The epoch
// index is the session's step counter. On a solve error nothing is
// reported or recorded, the deltas stay applied, and the next Step retries
// with them counted in its report.
func (e *Engine) Step(deltas []netmodel.Delta) (EpochReport, *core.ReoptimizeResult, error) {
	epoch := e.Session.Steps()
	for i := range deltas {
		ds, err := deltas[i].Apply(e.In)
		if err != nil {
			return EpochReport{}, nil, fmt.Errorf("live: epoch %d: %w", epoch, err)
		}
		e.Session.Observe(ds)
		e.carry.Events = append(e.carry.Events, deltas[i].Note)
		e.carry.Edits += deltas[i].Size()
	}
	er := EpochReport{Epoch: epoch, Events: e.carry.Events, Edits: e.carry.Edits}
	for _, phi := range e.In.Threshold {
		if phi > 0 {
			er.ActiveSinks++
		}
	}
	er.ActiveViewers = e.In.ActiveViewers()
	// The session observes through the epoch span, so the core stage spans
	// nest underneath.
	eo, esp := e.obs.StartSpan("epoch",
		obs.A("epoch", epoch), obs.A("events", len(er.Events)), obs.A("edits", er.Edits))
	e.Session.SetObserver(eo)
	start := time.Now()
	res, err := e.Session.Step(e.In)
	esp.End()
	if err != nil {
		return EpochReport{}, nil, fmt.Errorf("live: epoch %d solve: %w", epoch, err)
	}
	er.WallNS = time.Since(start).Nanoseconds()
	e.carry = EpochReport{}

	er.TrueCost = res.Audit.Cost
	er.LPCost = res.LPCost
	// Timings.LPPivots equals Frac.Iterations for monolithic epochs and
	// the all-shards/all-rounds pivot sum for sharded ones (Frac is nil on
	// the sharded path).
	er.Pivots = res.Timings.LPPivots
	er.Retries = res.Retries
	er.ArcChurn = res.ArcChurn
	er.ReflectorChurn = res.ReflectorChurn
	er.StreamChurn = res.StreamChurn
	er.ViewerChurn = res.ViewerChurn
	for _, b := range res.Design.Build {
		if b {
			er.BuiltReflectors++
		}
	}
	er.WeightFactor = res.Audit.WeightFactor
	er.FanoutFactor = res.Audit.FanoutFactor
	er.MetDemand = res.Audit.MetDemand
	er.AuditOK = res.AuditOK()
	er.StageWallNS = make(map[string]int64, len(res.Stages))
	for _, st := range res.Stages {
		er.StageWallNS[st.Name] = st.Wall.Nanoseconds()
	}
	if res.Patch != nil {
		er.LPPatches = res.Patch.Patches()
		if res.Patch.Rebuilt {
			er.LPRebuilds = 1
		}
	}
	er.Refactorizations = res.LPStats.Refactorizations
	er.FTUpdates = res.LPStats.FTUpdates
	er.DevexResets = res.LPStats.DevexResets
	if si := res.ShardInfo; si != nil {
		er.ExtractionsSkipped = si.ExtractionsSkipped
		er.ExchangeRounds = si.ExchangeRounds
		er.ExchangeGap = si.ExchangeGap
		for _, n := range si.PerShardPatches {
			er.LPPatches += n
		}
		for _, n := range si.PerShardRebuilds {
			er.LPRebuilds += n
		}
		// Surface the per-shard model-construction cost under the same
		// stage names the monolithic path reports, so lp-build/lp-patch
		// accounting is uniform across solve paths (summed over concurrent
		// shards).
		if si.LPBuildNS > 0 {
			er.StageWallNS["lp-build"] += si.LPBuildNS
		}
		if si.LPPatchNS > 0 {
			er.StageWallNS["lp-patch"] += si.LPPatchNS
		}
	}

	// Availability SLO: an epoch is available when at least the target
	// share of its active sinks meet their exact reliability threshold.
	verdict := e.SLO.Observe(e.In.Threshold, res.Audit.Met)
	er.SLOOk = verdict.Ok
	er.SLOWindowFrac = verdict.WindowFrac
	er.Regions = verdict.Regions
	er.Streams = verdict.Streams

	recordEpoch(e.obs.Registry(), er)
	return er, res, nil
}

// recordEpoch feeds one epoch's report into the metrics registry under the
// canonical naming scheme. The solver-level counters (pivots, factorization
// events, patches, shard coordination) are NOT fed here — core.Solve already
// records them through the same observer — so every metric has exactly one
// feeding point.
func recordEpoch(r *obs.Registry, er EpochReport) {
	if r == nil {
		return
	}
	r.Counter(obs.MEpochsTotal).Inc()
	r.Gauge(obs.MEpoch).Set(float64(er.Epoch))
	r.Histogram(obs.MEpochWall, nil).Observe(float64(er.WallNS) / 1e9)
	r.Gauge(obs.MEpochCost).Set(er.TrueCost)
	r.Gauge(obs.MActiveSinks).Set(float64(er.ActiveSinks))
	r.Gauge(obs.MActiveViewers).Set(float64(er.ActiveViewers))
	r.Gauge(obs.MBuiltReflectors).Set(float64(er.BuiltReflectors))
	if !er.AuditOK {
		r.Counter(obs.MAuditFailures).Inc()
	}
	r.Counter(obs.MChurnArcs).Add(float64(er.ArcChurn))
	r.Counter(obs.MChurnReflectors).Add(float64(er.ReflectorChurn))
	r.Counter(obs.MChurnStreams).Add(float64(er.StreamChurn))
	r.Counter(obs.MChurnViewers).Add(er.ViewerChurn)
	r.Gauge(obs.MSLOWindowAvailability).Set(er.SLOWindowFrac)
	if !er.SLOOk {
		r.Counter(obs.MSLOBreaches).Inc()
	}
	for _, ra := range er.Regions {
		r.Gauge(obs.MRegionAvailability, obs.L("region", strconv.Itoa(ra.Region))).Set(ra.Frac)
	}
	for _, sa := range er.Streams {
		r.Gauge(obs.MStreamAvailability, obs.L("stream", strconv.Itoa(sa.Stream))).Set(sa.Frac)
	}
}

// Telemetry turns an epoch's report, and the tracker that judged it, into
// the /healthz and /slo payloads. The health names no run and counts
// Epoch+1 epochs; callers fill Scenario/Policy and, for a fixed horizon,
// Epochs.
func Telemetry(er EpochReport, slo *SLOTracker) (obs.HealthStatus, obs.SLOStatus) {
	h := obs.HealthStatus{
		OK: er.AuditOK, Running: true,
		Epoch: er.Epoch, Epochs: er.Epoch + 1,
		AuditOK: er.AuditOK, SLOOk: er.SLOOk,
	}
	s := obs.SLOStatus{
		Window: slo.Window, Target: slo.Target,
		Ok: er.SLOOk, WindowFrac: er.SLOWindowFrac,
		Breaches: slo.Breaches(), MinWindowFrac: slo.MinWindowFrac(),
		Regions: make([]obs.RegionSLO, 0, len(er.Regions)),
		Streams: make([]obs.StreamSLO, 0, len(er.Streams)),
	}
	for _, ra := range er.Regions {
		s.Regions = append(s.Regions, obs.RegionSLO(ra))
	}
	for _, sa := range er.Streams {
		s.Streams = append(s.Streams, obs.StreamSLO(sa))
	}
	return h, s
}
