// Package daemon is the long-running provisioning service over the live
// re-optimization engine: overlayd. Where internal/live replays a fixed
// scenario to completion, the daemon runs an open-ended timeline — Deltas
// arrive continuously over HTTP, accumulate in a queue, and a solver loop
// consumes them on a cadence (or immediately, when queued churn crosses a
// pressure threshold), re-provisioning the overlay exactly the way §1.3's
// monitoring loop prescribes.
//
// The state split is the whole design:
//
//   - WRITE state (the live.Engine — instance, session, SLO tracker — plus
//     the delta queue and event log) lives behind one mutex and is touched
//     only by ingest and the solver;
//   - READ state is an immutable View published by atomic pointer swap
//     after every solve — placement lookups, /design and /status never
//     take the lock, so reads keep serving at full speed while a solve
//     runs.
//
// Everything the daemon has ingested is kept as a replayable event log
// (GET /scenario returns it in live.Scenario form, ready for overlaylive
// -replay), and the full control state — instance, deployed design, simplex
// basis factorization, aggregation partition, unsolved deltas — snapshots
// to disk so a restarted daemon resumes warm: the first post-restart epoch
// adopts the persisted basis (Forrest–Tomlin resume) instead of
// refactorizing cold.
//
// A solve that fails (an infeasible epoch, say) never takes the daemon
// down: the last good view keeps serving, /healthz and /status report the
// daemon degraded with the error as the reason, and the next solve
// retries with the failed epoch's deltas still applied.
package daemon

import (
	"context"
	"fmt"
	"log"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/live"
	"repro/internal/netmodel"
	"repro/internal/obs"
)

// Config parameterizes a daemon. The zero value of every knob has a usable
// default; only the instance (passed to New/Resume) is mandatory.
type Config struct {
	// Solver configures each epoch's solve (core.DefaultOptions(seed) if
	// zero-valued); Stickiness/WarmStart select the re-provisioning policy,
	// exactly as in live.Policy.
	Solver     core.Options
	Stickiness float64
	WarmStart  bool

	// SolveInterval is the re-optimization cadence; 0 disables the timer
	// (solves then happen only under pressure, via POST /solve, or not at
	// all — tests drive the loop manually).
	SolveInterval time.Duration
	// Pressure forces an immediate solve once this many atomic delta edits
	// are queued; 0 means 64. Negative disables pressure solves.
	Pressure int

	// SLOWindow / SLOTarget parameterize the availability tracker feeding
	// /slo (zero takes live.NewSLOTracker's defaults).
	SLOWindow int
	SLOTarget float64
	// SinkRegion optionally maps demand units to topology regions for the
	// per-region SLO breakdown (the per-stream breakdown needs no map).
	SinkRegion []int

	// SnapshotPath, when set, is where Save/periodic/shutdown snapshots go.
	// SnapshotEvery > 0 additionally snapshots after every n-th solve.
	SnapshotPath  string
	SnapshotEvery int

	// Obs receives the solver's observability signals; its registry backs
	// the mounted /metrics endpoint. Nil runs unobserved (the HTTP API
	// still works, minus /metrics content).
	Obs *obs.Observer
}

func (c *Config) defaults() {
	// Fill the solver knobs DefaultOptions would have set, without
	// clobbering anything the caller chose.
	if c.Solver.C == 0 {
		c.Solver.C = 64
	}
	if c.Solver.MaxRetries == 0 {
		c.Solver.MaxRetries = 8
	}
	if c.Solver.Seed == 0 {
		c.Solver.Seed = 1
	}
	if c.Pressure == 0 {
		c.Pressure = 64
	}
}

// EpochInfo is one solve's summary — the live engine's epoch report, so
// the daemon's epoch stream is field for field what overlaylive -replay of
// its exported scenario reports. It is the /status payload's last and POST
// /solve's response.
type EpochInfo = live.EpochReport

// Totals accumulate across the daemon's lifetime (reset by a restore —
// they are monitoring state, not control state).
type Totals struct {
	Solves           int `json:"solves"`
	Edits            int `json:"edits"`
	Pivots           int `json:"pivots"`
	FTUpdates        int `json:"ft_updates"`
	Refactorizations int `json:"refactorizations"`
	SLOBreaches      int `json:"slo_breaches"`
}

// View is the immutable published read state: everything a placement or
// design lookup needs, swapped in atomically after each solve (and once at
// construction/restore). Readers must not mutate it.
type View struct {
	// Epoch is the index of the last solved epoch (session steps - 1).
	Epoch int
	// In is a snapshot of the instance the design was solved against;
	// Design the deployed design; Audit its certificate on In.
	In     *netmodel.Instance
	Design *netmodel.Design
	Audit  netmodel.Audit
	// Last summarizes the solve that produced this view (zero-valued for
	// the view published by a restore, which re-serves the persisted
	// design without solving).
	Last EpochInfo
}

// Daemon is the service state. Construct with New or Resume, serve
// Handler(), and drive the solver loop with Run (or SolveNow in tests).
type Daemon struct {
	cfg Config
	srv *obs.Server
	reg *obs.Registry

	mu        sync.Mutex
	eng       *live.Engine
	base      *netmodel.Instance
	queue     []netmodel.Delta
	qEdits    int
	events    []live.Event
	totals    Totals
	sinceSnap int
	start     time.Time
	// degraded is the error of the last solve, cleared by the next good one.
	degraded string

	view atomic.Pointer[View]
	kick chan struct{}
}

// New builds a daemon over a clone of in and performs the initial
// provisioning solve (epoch 0), so placement lookups work the moment the
// listener is up.
func New(in *netmodel.Instance, cfg Config) (*Daemon, error) {
	if in == nil {
		return nil, fmt.Errorf("daemon: nil instance")
	}
	if err := in.Validate(); err != nil {
		return nil, fmt.Errorf("daemon: %w", err)
	}
	cfg.defaults()
	d := newDaemon(in.Clone(), in.Clone(), cfg, core.NewSession(cfg.Solver, cfg.Stickiness, cfg.WarmStart))
	if _, err := d.SolveNow(); err != nil {
		return nil, fmt.Errorf("daemon: initial provisioning: %w", err)
	}
	return d, nil
}

// Resume rebuilds a daemon from a snapshot: the session resumes at its
// persisted step counter with the persisted deployment, basis
// factorization and aggregation partition; unsolved deltas re-queue; and
// the pre-restart placement view is re-published verbatim (same design,
// same instance), so lookups across the restart are byte-identical. The
// SLO window and lifetime totals restart — they are monitoring state.
func Resume(snap *Snapshot, cfg Config) (*Daemon, error) {
	if err := snap.Validate(); err != nil {
		return nil, err
	}
	cfg.defaults()
	in := snap.Instance.Clone()
	sess, err := core.RestoreSession(in, cfg.Solver, cfg.Stickiness, cfg.WarmStart, snap.Session)
	if err != nil {
		return nil, fmt.Errorf("daemon: resume: %w", err)
	}
	d := newDaemon(snap.Base.Clone(), in, cfg, sess)
	d.events = append(d.events, snap.Events...)
	for _, del := range snap.Pending {
		d.queue = append(d.queue, del)
		d.qEdits += del.Size()
	}
	if dep := sess.Deployed(); dep != nil {
		audit := netmodel.AuditDesign(in, dep)
		d.publishLocked(dep, audit, EpochInfo{Epoch: sess.Steps() - 1})
		// The resumed daemon is healthy before its first solve: it serves
		// the persisted design. (The full guarantee predicate needs the
		// rounding variant, which only the next solve knows; structure is
		// what a re-audit of a deployed design can certify.)
		d.srv.SetHealth(obs.HealthStatus{
			OK: audit.StructureOK, Running: true,
			Scenario: d.base.Name, Policy: policyName(d.cfg),
			Epoch: sess.Steps() - 1, Epochs: sess.Steps(),
			AuditOK: audit.StructureOK,
		})
	} else if _, err := d.SolveNow(); err != nil {
		// A never-stepped snapshot restores to a fresh daemon: provision.
		return nil, fmt.Errorf("daemon: resume provisioning: %w", err)
	}
	return d, nil
}

// newDaemon wires the service state: base roots the event log, in is the
// live instance the engine takes over.
func newDaemon(base, in *netmodel.Instance, cfg Config, sess *core.Session) *Daemon {
	d := &Daemon{
		cfg:   cfg,
		base:  base,
		kick:  make(chan struct{}, 1),
		start: time.Now(),
	}
	// One registry backs everything: the mounted /metrics endpoint, the
	// engine's epoch/churn/SLO families, and the solver stack (the session
	// observes through the engine's epoch span).
	d.reg = cfg.Obs.Registry()
	if d.reg == nil {
		d.reg = obs.NewRegistry()
		d.cfg.Obs = &obs.Observer{Reg: d.reg}
	}
	d.eng = live.NewEngine(in, sess,
		live.NewSLOTracker(cfg.SLOWindow, cfg.SLOTarget, cfg.SinkRegion, in.Commodity),
		d.cfg.Obs)
	d.srv = obs.NewServer(d.reg)
	return d
}

// View returns the published read state (never nil after New/Resume).
func (d *Daemon) View() *View { return d.view.Load() }

// Ingest validates the deltas against the live instance and queues them
// for the next solve, tagging each with the epoch that will consume it (so
// the event log replays exactly). Returns the number of atomic edits
// queued in total (including previously queued ones) and the tagged epoch.
// On a validation error nothing is queued — a batch is all-or-nothing.
func (d *Daemon) Ingest(deltas []netmodel.Delta) (queuedEdits, epoch int, err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	epoch = d.eng.Session.Steps()
	for i := range deltas {
		if err := deltas[i].Validate(d.eng.In); err != nil {
			return d.qEdits, epoch, err
		}
	}
	for _, del := range deltas {
		d.queue = append(d.queue, del)
		d.qEdits += del.Size()
		d.events = append(d.events, live.Event{Epoch: epoch, Delta: del})
	}
	if d.cfg.Pressure > 0 && d.qEdits >= d.cfg.Pressure {
		select {
		case d.kick <- struct{}{}:
		default:
		}
	}
	return d.qEdits, epoch, nil
}

// SolveNow drains the queue and re-optimizes immediately (the POST /solve
// path; the solver loop and the pressure trigger funnel here too).
func (d *Daemon) SolveNow() (EpochInfo, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.solveLocked()
}

func (d *Daemon) solveLocked() (EpochInfo, error) {
	info, res, err := d.eng.Step(d.queue)
	// Whatever Step applied stays applied (a failed solve carries the
	// deltas into the next one), so the queue drains either way.
	d.queue = d.queue[:0]
	d.qEdits = 0
	if err != nil {
		// Keep serving the last good view; report why it is stale.
		d.degraded = err.Error()
		steps := d.eng.Session.Steps()
		d.srv.SetHealth(obs.HealthStatus{
			Running: true, Scenario: d.base.Name, Policy: policyName(d.cfg),
			Epoch: steps - 1, Epochs: steps, Reason: d.degraded,
		})
		return EpochInfo{}, fmt.Errorf("daemon: %w", err)
	}
	d.degraded = ""
	d.totals.Solves++
	d.totals.Edits += info.Edits
	d.totals.Pivots += info.Pivots
	d.totals.FTUpdates += info.FTUpdates
	d.totals.Refactorizations += info.Refactorizations
	d.totals.SLOBreaches = d.eng.SLO.Breaches()

	d.publishLocked(res.Design, res.Audit, info)
	health, slo := live.Telemetry(info, d.eng.SLO)
	health.Scenario, health.Policy = d.base.Name, policyName(d.cfg)
	d.srv.SetHealth(health)
	d.srv.SetSLO(slo)

	if d.cfg.SnapshotPath != "" && d.cfg.SnapshotEvery > 0 {
		d.sinceSnap++
		if d.sinceSnap >= d.cfg.SnapshotEvery {
			d.sinceSnap = 0
			if err := d.saveSnapshotLocked(d.cfg.SnapshotPath); err != nil {
				return info, fmt.Errorf("daemon: periodic snapshot: %w", err)
			}
		}
	}
	return info, nil
}

// publishLocked swaps in a fresh immutable view. The design is cloned (the
// session keeps mutating its copy through stickiness diffs), the instance
// snapshotted — readers own the view forever.
func (d *Daemon) publishLocked(design *netmodel.Design, audit netmodel.Audit, info EpochInfo) {
	d.view.Store(&View{
		Epoch:  info.Epoch,
		In:     d.eng.In.Clone(),
		Design: design.Clone(),
		Audit:  audit,
		Last:   info,
	})
}

func policyName(cfg Config) string {
	if cfg.WarmStart {
		return fmt.Sprintf("warm+sticky(%.2f)", cfg.Stickiness)
	}
	return "cold"
}

// Run drives the solver loop until ctx is cancelled: a cadence timer
// (Config.SolveInterval) and the pressure trigger both funnel into
// SolveNow. A failed solve is logged and the loop goes on — the daemon
// stays up, degraded, and the next trigger retries. On shutdown a final
// snapshot is written when a path is configured, so a SIGTERM'd daemon
// always restarts warm.
func (d *Daemon) Run(ctx context.Context) error {
	var tick <-chan time.Time
	if d.cfg.SolveInterval > 0 {
		t := time.NewTicker(d.cfg.SolveInterval)
		defer t.Stop()
		tick = t.C
	}
	for {
		select {
		case <-ctx.Done():
			if d.cfg.SnapshotPath != "" {
				if err := d.SaveSnapshot(d.cfg.SnapshotPath); err != nil {
					return fmt.Errorf("daemon: shutdown snapshot: %w", err)
				}
			}
			return nil
		case <-d.kick:
			d.solveLogged()
		case <-tick:
			d.solveLogged()
		}
	}
}

func (d *Daemon) solveLogged() {
	if _, err := d.SolveNow(); err != nil {
		log.Printf("overlayd: %v", err)
	}
}

// Scenario exports the full ingest history as a replayable live.Scenario:
// the instance the daemon booted from (or was restored with, verbatim from
// the snapshot's base) plus every delta ever ingested, epoch-tagged. The
// export validates, so overlaylive -replay accepts it as-is.
func (d *Daemon) Scenario() (*live.Scenario, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	epochs := d.eng.Session.Steps()
	for _, ev := range d.events {
		if ev.Epoch+1 > epochs {
			epochs = ev.Epoch + 1
		}
	}
	if epochs == 0 {
		epochs = 1
	}
	sc := &live.Scenario{
		Name:       "overlayd",
		Seed:       d.cfg.Solver.Seed,
		Epochs:     epochs,
		Events:     append([]live.Event(nil), d.events...),
		Base:       d.base.Clone(),
		SinkRegion: append([]int(nil), d.cfg.SinkRegion...),
	}
	if err := sc.Validate(); err != nil {
		return nil, fmt.Errorf("daemon: exported scenario invalid: %w", err)
	}
	return sc, nil
}

// Status is the /status payload.
type Status struct {
	Epoch int `json:"epoch"`
	// PendingDeltas/PendingEdits describe the unsolved queue.
	PendingDeltas int    `json:"pending_deltas"`
	PendingEdits  int    `json:"pending_edits"`
	EventsLogged  int    `json:"events_logged"`
	Policy        string `json:"policy"`
	Incremental   bool   `json:"incremental"`
	// Degraded reports that the last solve failed: the published view is
	// the last good one, DegradedReason the error, and the next solve
	// retries.
	Degraded       bool   `json:"degraded"`
	DegradedReason string `json:"degraded_reason,omitempty"`
	Totals         Totals `json:"totals"`
	// Last is the most recent solve's summary (zero Epoch with Solves==0
	// only right after a restore, which publishes without solving).
	Last          EpochInfo `json:"last"`
	SnapshotPath  string    `json:"snapshot_path,omitempty"`
	UptimeSeconds float64   `json:"uptime_seconds"`
}

// Status reports the daemon's control-plane state.
func (d *Daemon) Status() Status {
	d.mu.Lock()
	defer d.mu.Unlock()
	st := Status{
		Epoch:          d.eng.Session.Steps() - 1,
		PendingDeltas:  len(d.queue),
		PendingEdits:   d.qEdits,
		EventsLogged:   len(d.events),
		Policy:         policyName(d.cfg),
		Incremental:    d.eng.Session.Incremental(),
		Degraded:       d.degraded != "",
		DegradedReason: d.degraded,
		Totals:         d.totals,
		SnapshotPath:   d.cfg.SnapshotPath,
		UptimeSeconds:  time.Since(d.start).Seconds(),
	}
	if v := d.View(); v != nil {
		st.Last = v.Last
	}
	return st
}
