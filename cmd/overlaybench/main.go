// Command overlaybench runs the experiment suite of EXPERIMENTS.md — every
// table and figure validating the paper's claims — and prints the tables.
// It can additionally profile the solve pipeline stage by stage and emit
// the numbers as JSON, so successive PRs can track the performance
// trajectory in BENCH_*.json files.
//
// Usage:
//
//	overlaybench                # full suite (minutes)
//	overlaybench -quick         # reduced sizes (seconds)
//	overlaybench -only T2,T5    # subset by experiment ID
//	overlaybench -trials 20     # more seeds per cell
//	overlaybench -stages        # per-stage timing/allocation table
//	overlaybench -json out.json # machine-readable stage timings
//
// The sharded-solve acceptance sweep (S-series extended through 2000 sinks)
// writes BENCH_shard.json:
//
//	overlaybench -shardjson BENCH_shard.json [-monodeadline 60s]
//
// The incremental-LP-rebuild sweep (L5 across the scenario library, plus
// the 50-epoch flash-crowd acceptance workload) writes BENCH_incr.json:
//
//	overlaybench -incrjson BENCH_incr.json
//
// The multi-stream accounting sweep (the L6 workload: native viewer churn
// vs the paper's copy-split WLOG) writes BENCH_multistream.json, and the CI
// artifact mode regenerates every sweep into one directory:
//
//	overlaybench -multijson BENCH_multistream.json
//	overlaybench -quick -benchjson bench-artifacts/
//
// Each size solves with 8 shards, then attempts the monolithic reference in
// a subprocess killed at -monodeadline: at 2000 sinks the monolithic
// simplex does not terminate, so the record shows the deadline forfeit
// (with the speedup floor it proves) instead of a number nobody can
// reproduce.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/agg"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/gen"
	"repro/internal/live"
	"repro/internal/lp"
	"repro/internal/lpmodel"
	"repro/internal/netmodel"
	"repro/internal/obs"
)

func main() {
	var (
		quick     = flag.Bool("quick", false, "reduced sizes/trials")
		only      = flag.String("only", "", "comma-separated experiment IDs (default all)")
		trials    = flag.Int("trials", 0, "override trials per cell")
		stages    = flag.Bool("stages", false, "print per-stage pipeline instrumentation")
		jsonPath  = flag.String("json", "", "write per-stage timings as JSON to this file")
		shardJSON = flag.String("shardjson", "", "run the sharded-solve scaling sweep and write BENCH_shard.json here")
		monoDL    = flag.Duration("monodeadline", 60*time.Second, "wall budget per monolithic reference solve in the -shardjson sweep")
		monoProbe = flag.String("mono-probe", "", "internal: solve this instance monolithically and print JSON (subprocess mode)")
		incrJSON  = flag.String("incrjson", "", "run the incremental-LP-rebuild sweep and write BENCH_incr.json here")
		multiJSON = flag.String("multijson", "", "run the multi-stream accounting sweep (L6 workload) and write BENCH_multistream.json here")
		aggJSON   = flag.String("aggjson", "", "run the hierarchical-aggregation scaling sweep (10^4–10^6 viewers folded into weighted super-sinks) and write BENCH_agg.json here")
		aggMax    = flag.Int("aggmax", 100_000, "viewer ceiling for the -aggjson sweep (set 1000000 for the full gated sweep)")
		benchDir  = flag.String("benchjson", "", "write every BENCH_*.json sweep (stages, incremental, multi-stream, aggregation) into this directory — the CI artifact mode; honors -quick")
	)
	flag.Parse()
	// Flag validation: malformed numeric requests are usage errors (exit 2),
	// caught before any sweep starts burning minutes.
	if *trials < 0 {
		usage("-trials must be ≥ 0, got %d", *trials)
	}
	if *monoDL <= 0 {
		usage("-monodeadline must be positive, got %v", *monoDL)
	}
	if *aggMax <= 0 {
		usage("-aggmax must be positive, got %d", *aggMax)
	}

	if *monoProbe != "" {
		runMonoProbe(*monoProbe)
		return
	}
	if *shardJSON != "" {
		if err := shardSweep(*shardJSON, *monoDL, *quick); err != nil {
			fmt.Fprintf(os.Stderr, "overlaybench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *incrJSON != "" {
		if err := incrSweep(*incrJSON, *quick); err != nil {
			fmt.Fprintf(os.Stderr, "overlaybench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *multiJSON != "" {
		if err := multiSweep(*multiJSON, *quick); err != nil {
			fmt.Fprintf(os.Stderr, "overlaybench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *aggJSON != "" {
		if err := aggSweep(*aggJSON, *quick, *aggMax); err != nil {
			fmt.Fprintf(os.Stderr, "overlaybench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *benchDir != "" {
		if err := benchArtifacts(*benchDir, *quick); err != nil {
			fmt.Fprintf(os.Stderr, "overlaybench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	cfg := exp.DefaultConfig()
	if *quick {
		cfg = exp.QuickConfig()
	}
	if *trials > 0 {
		cfg.Trials = *trials
	}
	want := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			want[strings.TrimSpace(strings.ToUpper(id))] = true
		}
	}
	stagesOnly := (*stages || *jsonPath != "") && *only == ""
	total := time.Now()
	if !stagesOnly {
		for _, e := range exp.All() {
			if len(want) > 0 && !want[e.ID] {
				continue
			}
			start := time.Now()
			tb := e.Run(cfg)
			fmt.Println(tb.String())
			fmt.Printf("[%s completed in %v]\n\n", e.ID, time.Since(start).Round(time.Millisecond))
		}
		fmt.Printf("suite finished in %v\n", time.Since(total).Round(time.Millisecond))
	}

	if *stages || *jsonPath != "" {
		if err := reportStages(*stages, *jsonPath); err != nil {
			fmt.Fprintf(os.Stderr, "overlaybench: %v\n", err)
			os.Exit(1)
		}
	}
}

// stageReport is the JSON schema of -json (one entry per pipeline stage of
// a representative solve, plus headline solver counters).
type stageReport struct {
	Instance     string           `json:"instance"`
	LPVars       int              `json:"lp_vars"`
	LPRows       int              `json:"lp_rows"`
	LPPivots     int              `json:"lp_pivots"`
	TotalWallNS  int64            `json:"total_wall_ns"`
	Stages       []stageReportRow `json:"stages"`
	GeneratedRFC string           `json:"generated"`
}

type stageReportRow struct {
	Name       string `json:"name"`
	WallNS     int64  `json:"wall_ns"`
	AllocBytes uint64 `json:"alloc_bytes"`
	Allocs     uint64 `json:"allocs"`
	Runs       int    `json:"runs"`
}

// reportStages solves the T7 benchmark instance (the scalability
// acceptance workload) once and reports its per-stage instrumentation.
func reportStages(print bool, jsonPath string) error {
	const instance = "uniform-2x8x20-seed3"
	in := gen.Uniform(gen.DefaultUniform(2, 8, 20), 3)
	opts := core.DefaultOptions(1)
	opts.StageMemStats = true
	start := time.Now()
	res, err := core.Solve(in, opts)
	if err != nil {
		return err
	}
	wall := time.Since(start)

	if print {
		fmt.Printf("pipeline stages (%s):\n", instance)
		fmt.Printf("  %-12s %12s %12s %10s %6s\n", "stage", "wall", "alloc", "allocs", "runs")
		for _, s := range res.Stages {
			fmt.Printf("  %-12s %12s %12d %10d %6d\n",
				s.Name, s.Wall.Round(time.Microsecond), s.AllocBytes, s.Allocs, s.Runs)
		}
		fmt.Printf("  %-12s %12s   (LP %d vars × %d rows, %d pivots)\n",
			"total", wall.Round(time.Microsecond),
			res.Timings.TotalVars, res.Timings.TotalRows, res.Timings.LPPivots)
	}
	if jsonPath != "" {
		rep := stageReport{
			Instance:     instance,
			LPVars:       res.Timings.TotalVars,
			LPRows:       res.Timings.TotalRows,
			LPPivots:     res.Timings.LPPivots,
			TotalWallNS:  wall.Nanoseconds(),
			GeneratedRFC: time.Now().UTC().Format(time.RFC3339),
		}
		for _, s := range res.Stages {
			rep.Stages = append(rep.Stages, stageReportRow{
				Name: s.Name, WallNS: s.Wall.Nanoseconds(),
				AllocBytes: s.AllocBytes, Allocs: s.Allocs, Runs: s.Runs,
			})
		}
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote stage timings to %s\n", jsonPath)
	}
	return nil
}

// incrRow is one scenario of the BENCH_incr.json sweep.
type incrRow struct {
	Scenario string `json:"scenario"`
	Epochs   int    `json:"epochs"`
	Shards   int    `json:"shards"`
	// RebuildNS sums the per-epoch lp-build wall of the full-rebuild
	// baseline; IncrNS sums lp-build + lp-patch of the incremental run.
	RebuildNS int64   `json:"rebuild_lp_build_ns"`
	IncrNS    int64   `json:"incr_lp_build_patch_ns"`
	Speedup   float64 `json:"speedup"`
	// Patches / Rebuilds are the incremental run's totals; Identical
	// records that both runs agreed on cost, pivots, and churn (the
	// golden-equivalence property, re-checked here on real timelines).
	Patches   int  `json:"patches"`
	Rebuilds  int  `json:"rebuilds"`
	Identical bool `json:"identical"`
	// The epoch-wall row: total wall of the same incremental timeline under
	// the previous solver behavior (Dantzig pricing, refactorize at every
	// warm-start install, re-extract every shard sub-instance) against the
	// current defaults (devex pricing, persistent factorization, cached
	// sub-instances), with the factorization telemetry of the default run.
	PrevSolverWallNS   int64   `json:"prev_solver_epoch_wall_ns"`
	EpochWallNS        int64   `json:"epoch_wall_ns"`
	EpochWallSpeedup   float64 `json:"epoch_wall_speedup"`
	Refactorizations   int     `json:"refactorizations"`
	FTUpdates          int     `json:"ft_updates"`
	ExtractionsSkipped int     `json:"extractions_skipped"`
}

// incrBench is the BENCH_incr.json schema.
type incrBench struct {
	Workload  string    `json:"workload"`
	Rows      []incrRow `json:"rows"`
	Generated string    `json:"generated"`
}

// incrSweep measures the incremental LP rebuild against the per-epoch full
// rebuild on every library scenario (warm+sticky policy), headlined by the
// 50-epoch flash crowd the bench_test acceptance asserts ≥3x on, plus a
// sharded flash-crowd row exercising the per-shard patchers.
func incrSweep(outPath string, quick bool) error {
	epochs := 50
	if quick {
		epochs = 16
	}
	bench := incrBench{
		Workload:  "scenario library on gen.Clustered (DefaultTopo), warm+sticky, incremental vs per-epoch rebuild",
		Generated: time.Now().UTC().Format(time.RFC3339),
	}
	type job struct {
		name   string
		shards int
	}
	jobs := []job{}
	for _, name := range live.Names() {
		jobs = append(jobs, job{name, 0})
	}
	jobs = append(jobs, job{"flashcrowd", 3})
	for _, jb := range jobs {
		sc, err := live.Make(jb.name, 1, epochs)
		if err != nil {
			return err
		}
		run := func(noIncr, pinInstall, dantzig bool) (*live.RunReport, error) {
			cfg := live.Config{Policy: live.WarmStickyPolicy(), NoIncremental: noIncr}
			cfg.Solver.Shards = jb.shards
			// The identical-check arms pin refactorize-on-install: only the
			// incremental arm keeps lp.Problems alive, so persistence would
			// perturb near-tie pivots between the arms for reasons unrelated
			// to the patched-LP equivalence the column records.
			cfg.Solver.RefactorOnInstall = pinInstall
			if dantzig {
				cfg.Solver.Pricing = lp.DantzigPricing
			}
			return live.Run(sc, cfg)
		}
		base, err := run(true, true, false)
		if err != nil {
			return fmt.Errorf("%s rebuild: %w", jb.name, err)
		}
		incr, err := run(false, true, false)
		if err != nil {
			return fmt.Errorf("%s incremental: %w", jb.name, err)
		}
		// The epoch-wall pair: the same incremental timeline under the
		// previous solver behavior vs the current defaults.
		prev, err := run(false, true, true)
		if err != nil {
			return fmt.Errorf("%s prev-solver: %w", jb.name, err)
		}
		fast, err := run(false, false, false)
		if err != nil {
			return fmt.Errorf("%s default-solver: %w", jb.name, err)
		}
		row := incrRow{
			Scenario:  jb.name,
			Epochs:    epochs,
			Shards:    jb.shards,
			RebuildNS: base.LPConstructionNS(),
			IncrNS:    incr.LPConstructionNS(),
			Patches:   incr.TotalLPPatches,
			Rebuilds:  incr.TotalLPRebuilds,
			Identical: base.TotalTrueCost == incr.TotalTrueCost &&
				base.TotalPivots == incr.TotalPivots &&
				base.TotalArcChurn == incr.TotalArcChurn,
			PrevSolverWallNS:   prev.TotalWallNS,
			EpochWallNS:        fast.TotalWallNS,
			Refactorizations:   fast.TotalRefactorizations,
			FTUpdates:          fast.TotalFTUpdates,
			ExtractionsSkipped: fast.TotalExtractionsSkipped,
		}
		row.Speedup = float64(row.RebuildNS) / float64(row.IncrNS)
		row.EpochWallSpeedup = float64(row.PrevSolverWallNS) / float64(row.EpochWallNS)
		tag := ""
		if jb.shards > 0 {
			tag = fmt.Sprintf(" (shards=%d)", jb.shards)
		}
		fmt.Printf("%s%s: rebuild %v vs incr %v (%.1fx), %d patches, %d builds, identical=%v\n",
			jb.name, tag, time.Duration(row.RebuildNS).Round(time.Microsecond),
			time.Duration(row.IncrNS).Round(time.Microsecond), row.Speedup,
			row.Patches, row.Rebuilds, row.Identical)
		fmt.Printf("%s%s: epoch wall %v (prev solver) vs %v (%.2fx), %d FT updates, %d refactorizations, %d extractions skipped\n",
			jb.name, tag, time.Duration(row.PrevSolverWallNS).Round(time.Microsecond),
			time.Duration(row.EpochWallNS).Round(time.Microsecond), row.EpochWallSpeedup,
			row.FTUpdates, row.Refactorizations, row.ExtractionsSkipped)
		bench.Rows = append(bench.Rows, row)
	}
	data, err := json.MarshalIndent(bench, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote incremental-rebuild sweep to %s\n", outPath)
	return nil
}

// multiRow is one scenario of the BENCH_multistream.json sweep.
type multiRow struct {
	Scenario string `json:"scenario"`
	Epochs   int    `json:"epochs"`
	// Units counts demand units (subscriptions), Viewers the real sinks
	// behind them.
	Units   int `json:"units"`
	Viewers int `json:"viewers"`
	// StreamChurn counts subscription switches; ViewerChurn is the native
	// fractional viewer accounting; Overcount is StreamChurn/ViewerChurn —
	// the factor by which the paper's copy-split WLOG would have
	// exaggerated viewer churn.
	StreamChurn int     `json:"stream_churn"`
	ViewerChurn float64 `json:"viewer_churn"`
	Overcount   float64 `json:"copy_split_overcount"`
	ArcChurn    int     `json:"arc_churn"`
	// Patches / Rebuilds: stream churn must ride the incremental LP path
	// (Rebuilds stays at the epoch-0 build).
	Patches  int `json:"lp_patches"`
	Rebuilds int `json:"lp_rebuilds"`
	// SplitLPEqual re-verifies the WLOG theorem on the base instance: the
	// native LP optimum equals the copy-split optimum.
	SplitLPEqual bool `json:"split_lp_equal"`
	AuditOK      bool `json:"all_audit_ok"`
}

// multiBench is the BENCH_multistream.json schema.
type multiBench struct {
	Workload  string     `json:"workload"`
	Rows      []multiRow `json:"rows"`
	Generated string     `json:"generated"`
}

// multiSweep runs the L6 workload — the multi-stream scenario pair under
// warm+sticky incremental re-provisioning — and records the native
// stream/viewer churn accounting next to the copy-split equivalence check.
func multiSweep(outPath string, quick bool) error {
	epochs := 50
	if quick {
		epochs = 16
	}
	bench := multiBench{
		Workload:  "multi-stream scenarios on gen.Clustered (MultiStreamTopo: 3 streams, 2 per sink), warm+sticky, incremental LP",
		Generated: time.Now().UTC().Format(time.RFC3339),
	}
	for _, name := range []string{"streamwave", "streamfailover"} {
		sc, err := live.Make(name, 1, epochs)
		if err != nil {
			return err
		}
		rep, err := live.Run(sc, live.Config{Policy: live.WarmStickyPolicy()})
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		row := multiRow{
			Scenario:    name,
			Epochs:      epochs,
			Units:       sc.Base.NumSinks,
			Viewers:     sc.Base.NumViewers(),
			StreamChurn: rep.TotalStreamChurn,
			ViewerChurn: rep.TotalViewerChurn,
			ArcChurn:    rep.TotalArcChurn,
			Patches:     rep.TotalLPPatches,
			Rebuilds:    rep.TotalLPRebuilds,
			AuditOK:     rep.AllAuditOK,
		}
		if row.ViewerChurn > 0 {
			row.Overcount = float64(row.StreamChurn) / row.ViewerChurn
		}
		nat, err := lpmodel.SolveLP(sc.Base, lpmodel.DefaultOptions(sc.Base))
		if err != nil {
			return fmt.Errorf("%s native LP: %w", name, err)
		}
		split := sc.Base.SplitStreams()
		sp, err := lpmodel.SolveLP(split, lpmodel.DefaultOptions(split))
		if err != nil {
			return fmt.Errorf("%s copy-split LP: %w", name, err)
		}
		row.SplitLPEqual = math.Abs(nat.Cost-sp.Cost) <= 1e-9*(1+math.Abs(sp.Cost))
		fmt.Printf("%s: %d stream switches → %.1f viewer churn (%.1fx copy-split overcount), %d patches, %d builds, lp≡split=%v, auditOK=%v\n",
			name, row.StreamChurn, row.ViewerChurn, row.Overcount, row.Patches, row.Rebuilds, row.SplitLPEqual, row.AuditOK)
		bench.Rows = append(bench.Rows, row)
	}
	data, err := json.MarshalIndent(bench, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote multi-stream sweep to %s\n", outPath)
	return nil
}

// aggRow is one viewer-population size of the BENCH_agg.json sweep.
type aggRow struct {
	Viewers    int `json:"viewers"`
	Reflectors int `json:"reflectors"`
	// Groups / AggUnits are the fold's output: weighted super-sinks and the
	// demand units the LP actually solves over (= the LP's sink axis).
	Groups   int `json:"agg_groups"`
	AggUnits int `json:"agg_units"`
	// The one-shot aggregated solve (devex defaults): fold, solve, unfold.
	AggWallNS     int64   `json:"agg_wall_ns"`
	AggCost       float64 `json:"agg_cost"`
	CostPerViewer float64 `json:"agg_cost_per_viewer"`
	AuditOK       bool    `json:"audit_ok"`
	// The trusted unaggregated reference, solved only at sizes where the
	// |R|·|D| monolithic LP is tractable; CostRatio = agg / flat is the
	// aggregation overhead the equivalence harness pins at ≤ 1.05.
	FlatWallNS int64   `json:"flat_wall_ns,omitempty"`
	FlatCost   float64 `json:"flat_cost,omitempty"`
	CostRatio  float64 `json:"cost_ratio,omitempty"`
	// CostPerViewerVsRef pins the large sizes (where no flat solve exists)
	// to the reference row: aggregated cost per viewer relative to the
	// smallest size's, so drift at scale is visible in the artifact.
	CostPerViewerVsRef float64 `json:"cost_per_viewer_vs_ref,omitempty"`
	// The churn timeline: drop 1% → rejoin → weight-neutral swap →
	// repricing, under the incremental session. MaxEpochWallNS is the
	// slowest epoch; EpochWallOK says it stayed inside the budget.
	Epochs         int   `json:"epochs"`
	MaxEpochWallNS int64 `json:"max_epoch_wall_ns"`
	EpochWallOK    bool  `json:"epoch_wall_ok"`
	LPFreeEpochs   int   `json:"lp_free_epochs"`
	WeightChanges  int   `json:"agg_weight_changes"`
	Patches        int   `json:"lp_patches"`
	// The devex-at-scale re-measure (the PR-6 follow-up) on the aggregate
	// LP: pivots and wall under both pricing rules at this size.
	DevexPivots   int   `json:"devex_pivots"`
	DantzigPivots int   `json:"dantzig_pivots"`
	DevexWallNS   int64 `json:"devex_wall_ns"`
	DantzigWallNS int64 `json:"dantzig_wall_ns"`
}

// aggBench is the BENCH_agg.json schema.
type aggBench struct {
	Workload        string   `json:"workload"`
	EpochWallBudget string   `json:"epoch_wall_budget"`
	Rows            []aggRow `json:"rows"`
	Generated       string   `json:"generated"`
}

// aggEpochWallBudget bounds every churn epoch of the -aggjson sweep: an
// aggregated epoch at 10^5 viewers is a fold refresh plus a few-hundred-unit
// LP, so two minutes is generous headroom, not a target. What matters is
// that the bound holds FLAT as viewers scale — the aggregate LP's size
// doesn't grow with V (the flat path forfeits outright past ~2000 sinks) —
// and that the worst case, a repricing epoch that trips the devex-stall
// recovery (a full extra cold solve), still fits on a contended CI core.
const aggEpochWallBudget = 120 * time.Second

// aggAnchors mirrors internal/agg's default grouping (each viewer labeled by
// the reflector serving it cheapest, ties to the lowest index) so the sweep
// can construct churn that is provably intra-aggregate. Computed on the
// pristine instance — the fold's membership is fixed at build time.
func aggAnchors(in *netmodel.Instance) []int {
	_, R, _ := in.Dims()
	units := in.ViewerUnits()
	out := make([]int, len(units))
	for g, us := range units {
		best, bestC := 0, math.Inf(1)
		for i := 0; i < R; i++ {
			c := 0.0
			for _, j := range us {
				c += in.RefSinkCost[i][j]
			}
			if c < bestC {
				best, bestC = i, c
			}
		}
		out[g] = best
	}
	return out
}

// aggSweep scales the hierarchical aggregation to production viewer counts:
// each size folds a clustered footprint into weighted super-sinks, solves
// one-shot (against the unaggregated reference where that LP is tractable),
// then drives a short churn timeline through the incremental session —
// including the weight-neutral swap that must solve LP-free — and re-measures
// devex vs dantzig pricing on the aggregate LP. maxViewers gates the top
// sizes: 10^5 is the default sweep, 10^6 the opt-in full footprint.
func aggSweep(outPath string, quick bool, maxViewers int) error {
	const regions, isps = 10, 5
	const flatRefViewers = 250 // largest size the monolithic flat LP solves fast
	sizes := []int{flatRefViewers, 1_000, 10_000, 100_000, 1_000_000}
	if quick {
		sizes = []int{flatRefViewers, 1_000, 10_000}
	}
	bench := aggBench{
		Workload: fmt.Sprintf(
			"gen.Clustered sources=2 regions=%d isps=%d (colors stripped), anchor-grouped aggregation, seed 7; churn: drop 1%% → rejoin → weight-neutral swap → repricing",
			regions, isps),
		EpochWallBudget: aggEpochWallBudget.String(),
		Generated:       time.Now().UTC().Format(time.RFC3339),
	}
	refCPV := 0.0
	for _, viewers := range sizes {
		if viewers > maxViewers && viewers != flatRefViewers {
			fmt.Printf("V=%d: skipped (over -aggmax %d)\n", viewers, maxViewers)
			continue
		}
		in := gen.Clustered(gen.DefaultClustered(2, regions, isps, viewers/regions), 7)
		// Colors stripped, matching the -shardjson scaling workload: the
		// per-color covering rows multiply LP size without changing what this
		// sweep measures (the fold, not the color constraints).
		in.Color = nil
		in.NumColors = 0
		row := aggRow{Viewers: in.NumViewers(), Reflectors: in.NumReflectors, EpochWallOK: true}

		// One-shot aggregated solve, registry attached so the fold's shape
		// comes from the same overlay_agg_* gauges CI scrapes.
		reg := obs.NewRegistry()
		opts := core.DefaultOptions(1)
		opts.Aggregate = &agg.Config{}
		opts.Obs = &obs.Observer{Reg: reg}
		start := time.Now()
		res, err := core.Solve(in.Clone(), opts)
		if err != nil {
			return fmt.Errorf("aggregated V=%d: %w", viewers, err)
		}
		row.AggWallNS = time.Since(start).Nanoseconds()
		row.AggCost = res.Audit.Cost
		row.CostPerViewer = res.Audit.Cost / float64(viewers)
		row.AuditOK = res.AuditOK()
		row.DevexPivots = res.Timings.LPPivots
		row.DevexWallNS = row.AggWallNS
		row.Groups = int(reg.Gauge(obs.MAggGroups).Value())
		row.AggUnits = int(reg.Gauge(obs.MAggUnits).Value())
		if viewers == flatRefViewers {
			fopts := core.DefaultOptions(1)
			start = time.Now()
			flat, err := core.Solve(in.Clone(), fopts)
			if err != nil {
				return fmt.Errorf("flat V=%d: %w", viewers, err)
			}
			row.FlatWallNS = time.Since(start).Nanoseconds()
			row.FlatCost = flat.Audit.Cost
			row.CostRatio = row.AggCost / flat.Audit.Cost
			refCPV = row.CostPerViewer
		} else if refCPV > 0 {
			row.CostPerViewerVsRef = row.CostPerViewer / refCPV
		}

		// Dantzig re-measure of the same aggregate LP (the PR-6 follow-up:
		// does devex still pay once aggregation shrinks the sink axis?).
		dopts := core.DefaultOptions(1)
		dopts.Aggregate = &agg.Config{}
		dopts.Pricing = lp.DantzigPricing
		start = time.Now()
		dres, err := core.Solve(in.Clone(), dopts)
		if err != nil {
			return fmt.Errorf("aggregated dantzig V=%d: %w", viewers, err)
		}
		row.DantzigWallNS = time.Since(start).Nanoseconds()
		row.DantzigPivots = dres.Timings.LPPivots

		// The churn timeline. Membership is fixed at the session's first
		// Step, so the swap pair is chosen on the pristine instance.
		anchors := aggAnchors(in)
		G := in.NumViewers()
		const stride = 100 // every 100th viewer churns: a 1% storm
		var sample []int
		for g := 0; g < G; g += stride {
			sample = append(sample, g)
		}
		thr0 := append([]float64(nil), in.Threshold...)
		// b leaves in the storm and stays out; a is an active viewer of the
		// same aggregate — same anchor AND same stream (the aggregate key is
		// the (group, slot-set) pair).
		b, a := sample[0], -1
		for g := 0; g < G; g++ {
			if g != b && g%stride != 0 && anchors[g] == anchors[b] && in.Commodity[g] == in.Commodity[b] {
				a = g
				break
			}
		}
		sreg := obs.NewRegistry()
		sopts := core.DefaultOptions(7)
		sopts.Aggregate = &agg.Config{}
		sopts.IncrementalLP = true
		sopts.Obs = &obs.Observer{Reg: sreg}
		eng := live.NewEngine(in, core.NewSession(sopts, 0, true),
			live.NewSLOTracker(0, 0, nil, in.Commodity), sopts.Obs)
		epoch := func(d *netmodel.Delta) error {
			var ds []netmodel.Delta
			if d != nil {
				ds = append(ds, *d)
			}
			er, _, err := eng.Step(ds)
			if err != nil {
				return err
			}
			row.MaxEpochWallNS = max(row.MaxEpochWallNS, er.WallNS)
			row.Patches += er.LPPatches
			row.Epochs++
			return nil
		}
		drop := &netmodel.Delta{Note: "churn storm: 1% leave"}
		rejoin := &netmodel.Delta{Note: "storm viewers rejoin"}
		for _, g := range sample {
			drop.SetThreshold = append(drop.SetThreshold, netmodel.SinkValue{Sink: g, Value: 0})
			if g != b {
				rejoin.SetThreshold = append(rejoin.SetThreshold, netmodel.SinkValue{Sink: g, Value: thr0[g]})
			}
		}
		deltas := []*netmodel.Delta{nil, drop, rejoin}
		if a >= 0 {
			deltas = append(deltas, &netmodel.Delta{Note: "weight-neutral intra-aggregate swap",
				SetThreshold: []netmodel.SinkValue{{Sink: a, Value: 0}, {Sink: b, Value: in.Threshold[a]}}})
		}
		deltas = append(deltas, &netmodel.Delta{Note: "reflector repricing",
			ScaleReflectorCost: []netmodel.RefValue{{Ref: 0, Value: 1.05}},
			ScaleRefSinkCost:   []netmodel.ArcValue{{A: 1, B: 0, Value: 1.1}}})
		for _, d := range deltas {
			if err := epoch(d); err != nil {
				return fmt.Errorf("churn epoch V=%d: %w", viewers, err)
			}
		}
		row.EpochWallOK = row.MaxEpochWallNS <= aggEpochWallBudget.Nanoseconds()
		row.LPFreeEpochs = int(sreg.Counter(obs.MAggLPFreeEpochs).Value())
		row.WeightChanges = int(sreg.Counter(obs.MAggWeightChanges).Value())

		fmt.Printf("V=%d: %d groups / %d units | agg %v cost %.1f (auditOK=%v)",
			viewers, row.Groups, row.AggUnits,
			time.Duration(row.AggWallNS).Round(time.Millisecond), row.AggCost, row.AuditOK)
		if row.CostRatio > 0 {
			fmt.Printf(" | flat %v (ratio %.3fx)",
				time.Duration(row.FlatWallNS).Round(time.Millisecond), row.CostRatio)
		} else if row.CostPerViewerVsRef > 0 {
			fmt.Printf(" | cost/viewer %.3fx of reference", row.CostPerViewerVsRef)
		}
		fmt.Printf(" | churn max epoch %v (ok=%v), %d lp-free, %d patches | pivots devex %d vs dantzig %d\n",
			time.Duration(row.MaxEpochWallNS).Round(time.Millisecond), row.EpochWallOK,
			row.LPFreeEpochs, row.Patches, row.DevexPivots, row.DantzigPivots)
		bench.Rows = append(bench.Rows, row)
	}
	data, err := json.MarshalIndent(bench, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote aggregation sweep to %s\n", outPath)
	return nil
}

// benchArtifacts is the CI artifact mode: every BENCH_*.json sweep written
// into one directory, so bench trajectories are reproducible from any CI
// run's artifacts.
func benchArtifacts(dir string, quick bool) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := reportStages(false, filepath.Join(dir, "BENCH_stages.json")); err != nil {
		return fmt.Errorf("stages: %w", err)
	}
	if err := incrSweep(filepath.Join(dir, "BENCH_incr.json"), quick); err != nil {
		return fmt.Errorf("incr: %w", err)
	}
	if err := multiSweep(filepath.Join(dir, "BENCH_multistream.json"), quick); err != nil {
		return fmt.Errorf("multistream: %w", err)
	}
	aggCeil := 100_000
	if quick {
		aggCeil = 10_000
	}
	if err := aggSweep(filepath.Join(dir, "BENCH_agg.json"), quick, aggCeil); err != nil {
		return fmt.Errorf("agg: %w", err)
	}
	return nil
}

// usage reports a flag-validation failure as a usage error: the message plus
// the flag summary on stderr, exit code 2 (the flag package's own code for
// malformed command lines).
func usage(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "overlaybench: "+format+"\n", args...)
	flag.Usage()
	os.Exit(2)
}

// monoProbeOut is the subprocess protocol of -mono-probe: one JSON object
// on stdout.
type monoProbeOut struct {
	WallNS  int64   `json:"wall_ns"`
	Cost    float64 `json:"cost"`
	Pivots  int     `json:"pivots"`
	AuditOK bool    `json:"audit_ok"`
	Err     string  `json:"err,omitempty"`
}

// runMonoProbe is the subprocess side: load, solve monolithically, report.
func runMonoProbe(path string) {
	out := monoProbeOut{}
	in, err := netmodel.LoadFile(path)
	if err == nil {
		start := time.Now()
		var res *core.Result
		res, err = core.Solve(in, core.DefaultOptions(1))
		out.WallNS = time.Since(start).Nanoseconds()
		if err == nil {
			out.Cost = res.Audit.Cost
			out.Pivots = res.Timings.LPPivots
			out.AuditOK = res.AuditOK()
		}
	}
	if err != nil {
		out.Err = err.Error()
	}
	json.NewEncoder(os.Stdout).Encode(out)
}

// shardRow is one size of the BENCH_shard.json sweep.
type shardRow struct {
	Sinks       int     `json:"sinks"`
	Reflectors  int     `json:"reflectors"`
	Shards      int     `json:"shards"`
	ShardWallNS int64   `json:"shard_wall_ns"`
	ShardCost   float64 `json:"shard_cost"`
	ShardPivots int     `json:"shard_pivots"`
	Rounds      int     `json:"rounds"`
	AuditOK     bool    `json:"audit_ok"`
	// Fallback marks a row whose "sharded" numbers actually came from the
	// monolithic fallback (coordination could not feed a shard); the mono
	// probe is skipped for such rows — the comparison would be
	// monolithic-vs-monolithic.
	Fallback bool `json:"fallback"`
	// MonoStatus is "ok", "deadline", or "error: ...". On "ok" the mono
	// numbers are real; on "deadline" SpeedupFloor is what the forfeit
	// proves (deadline / sharded wall).
	MonoStatus   string  `json:"mono_status"`
	MonoWallNS   int64   `json:"mono_wall_ns,omitempty"`
	MonoCost     float64 `json:"mono_cost,omitempty"`
	Speedup      float64 `json:"speedup,omitempty"`
	SpeedupFloor float64 `json:"speedup_floor,omitempty"`
	CostRatio    float64 `json:"cost_ratio,omitempty"`
}

// reflectorRow is one |R| size of the reflector-axis sweep: the same
// capacity-constrained instance coordinated flat (proportional re-bidding)
// and hierarchically (two-level dual-price exchange), side by side.
type reflectorRow struct {
	Reflectors int `json:"reflectors"`
	Sinks      int `json:"sinks"`
	Shards     int `json:"shards"`
	Fanout     int `json:"fanout"`
	// The flat coordination arm.
	FlatWallNS   int64   `json:"flat_wall_ns"`
	FlatRounds   int     `json:"flat_rounds"`
	FlatResolves int     `json:"flat_resolves"`
	FlatCost     float64 `json:"flat_cost"`
	FlatAuditOK  bool    `json:"flat_audit_ok"`
	// The hierarchical exchange arm.
	HierWallNS          int64   `json:"hier_wall_ns"`
	ExchangeRounds      int     `json:"exchange_rounds"`
	ExchangeGap         float64 `json:"exchange_gap"`
	ContestedReflectors int     `json:"contested_reflectors"`
	HierResolves        int     `json:"hier_resolves"`
	HierCost            float64 `json:"hier_cost"`
	HierAuditOK         bool    `json:"hier_audit_ok"`
	// CostRatio = hier / flat; RoundRatio = exchange / flat rounds.
	CostRatio  float64 `json:"cost_ratio"`
	RoundRatio float64 `json:"round_ratio,omitempty"`
}

// shardBench is the BENCH_shard.json schema.
type shardBench struct {
	Workload     string     `json:"workload"`
	MonoDeadline string     `json:"mono_deadline"`
	Rows         []shardRow `json:"rows"`
	// ReflectorRows is the reflector-axis sweep: fixed sink population,
	// |R| grown 50 → 500 with total fanout capacity held near-constant
	// (scarce), flat coordination vs the hierarchical dual-price exchange.
	ReflectorRows []reflectorRow `json:"reflector_rows"`
	Generated     string         `json:"generated"`
}

// shardSweep runs the S2 extended scaling sweep: 8-shard solves from 252 to
// 2000 sinks, each against a deadline-bounded monolithic reference run in a
// subprocess (a solve that blows the deadline is killed and recorded as a
// forfeit — the honest way to benchmark against a solver that does not
// terminate at the top size).
func shardSweep(outPath string, deadline time.Duration, quick bool) error {
	sprs := []int{63, 125, 250, 500}
	if quick {
		sprs = []int{25, 50}
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	tmp, err := os.MkdirTemp("", "shardsweep")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	bench := shardBench{
		Workload:     "gen.Clustered sources=2 regions=4 isps=3 (colors stripped), shards=8, seed 7",
		MonoDeadline: deadline.String(),
		Generated:    time.Now().UTC().Format(time.RFC3339),
	}
	for _, spr := range sprs {
		cc := gen.DefaultClustered(2, 4, 3, spr)
		in := gen.Clustered(cc, 7)
		in.Color = nil
		in.NumColors = 0

		opts := core.DefaultOptions(1)
		opts.Shards = 8
		start := time.Now()
		res, err := core.Solve(in, opts)
		if err != nil {
			return fmt.Errorf("sharded D=%d: %w", in.NumSinks, err)
		}
		shardWall := time.Since(start)
		row := shardRow{
			Sinks:       in.NumSinks,
			Reflectors:  in.NumReflectors,
			Shards:      res.ShardInfo.Shards,
			ShardWallNS: shardWall.Nanoseconds(),
			ShardCost:   res.Audit.Cost,
			ShardPivots: res.Timings.LPPivots,
			Rounds:      res.ShardInfo.Rounds,
			AuditOK:     res.AuditOK(),
			Fallback:    res.ShardInfo.Fallback,
		}
		if row.Fallback {
			row.MonoStatus = "skipped (sharded solve fell back to monolithic)"
			fmt.Printf("D=%d: FELL BACK to monolithic (%v) — row records no sharded numbers\n",
				in.NumSinks, shardWall.Round(time.Millisecond))
			bench.Rows = append(bench.Rows, row)
			continue
		}

		instPath := filepath.Join(tmp, fmt.Sprintf("inst-%d.json", in.NumSinks))
		f, err := os.Create(instPath)
		if err != nil {
			return err
		}
		if err := in.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		f.Close()

		ctx, cancel := context.WithTimeout(context.Background(), deadline)
		outBytes, err := exec.CommandContext(ctx, self, "-mono-probe", instPath).Output()
		timedOut := ctx.Err() == context.DeadlineExceeded
		cancel()
		var probe monoProbeOut
		switch {
		case timedOut:
			row.MonoStatus = "deadline"
			row.SpeedupFloor = float64(deadline) / float64(shardWall)
		case err != nil:
			row.MonoStatus = "error: " + err.Error()
		default:
			if uerr := json.Unmarshal(outBytes, &probe); uerr != nil {
				out := outBytes
				if len(out) > 120 {
					out = out[:120]
				}
				row.MonoStatus = fmt.Sprintf("error: bad probe output %q: %v", out, uerr)
				break
			}
			if probe.Err != "" {
				row.MonoStatus = "error: " + probe.Err
				break
			}
			row.MonoStatus = "ok"
			row.MonoWallNS = probe.WallNS
			row.MonoCost = probe.Cost
			row.Speedup = float64(probe.WallNS) / float64(row.ShardWallNS)
			row.CostRatio = row.ShardCost / probe.Cost
		}
		fmt.Printf("D=%d: sharded %v cost %.1f | mono %s", in.NumSinks,
			shardWall.Round(time.Millisecond), row.ShardCost, row.MonoStatus)
		if row.MonoStatus == "ok" {
			fmt.Printf(" %v (%.1fx, cost %.3fx)",
				time.Duration(row.MonoWallNS).Round(time.Millisecond), row.Speedup, row.CostRatio)
		} else if row.SpeedupFloor > 0 {
			fmt.Printf(" (≥%.1fx proven)", row.SpeedupFloor)
		}
		fmt.Println()
		bench.Rows = append(bench.Rows, row)
	}
	rows, err := reflectorSweep(quick)
	if err != nil {
		return err
	}
	bench.ReflectorRows = rows

	data, err := json.MarshalIndent(bench, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote shard sweep to %s\n", outPath)
	return nil
}

// reflectorSweep grows the reflector axis 50 → 500 over a fixed sink
// population with total fanout capacity held near-constant (≈2.5 service
// slots per sink — scarce enough that shards contend), and coordinates each
// instance both ways: flat proportional re-bidding vs the two-level
// dual-price exchange. The sweep is where the exchange's claim lives: as
// |R| grows, contested reflectors multiply, and the price-priority clearing
// should hold its round count (and cost) at or below the flat pass's.
func reflectorSweep(quick bool) ([]reflectorRow, error) {
	const regions, isps = 10, 5
	rpcs := []int{1, 2, 4, 10} // |R| = 50, 100, 200, 500
	spr := 16                  // 160 sinks
	if quick {
		rpcs = []int{1, 2}
		spr = 8
	}
	var rows []reflectorRow
	for _, rpc := range rpcs {
		cc := gen.DefaultClustered(2, regions, isps, spr)
		cc.ReflectorsPerColo = rpc
		R := regions * isps * rpc
		D := regions * spr
		// ⌈2.5·D / R⌉: capacity stays scarce as R grows. Floored at 2 —
		// single-slot reflectors are a degenerate knife edge where the
		// clustered generator's cheap sets collapse, not a scarcity regime.
		cc.Fanout = max((5*D/2+R-1)/R, 2)
		in := gen.Clustered(cc, 21)
		in.Color = nil
		in.NumColors = 0

		opts := core.DefaultOptions(21)
		opts.Shards = 8
		opts.ShardRounds = 8
		start := time.Now()
		flat, err := core.Solve(in, opts)
		if err != nil {
			return nil, fmt.Errorf("flat R=%d: %w", R, err)
		}
		flatWall := time.Since(start)

		opts.ShardLevels = 2
		start = time.Now()
		hier, err := core.Solve(in, opts)
		if err != nil {
			return nil, fmt.Errorf("hier R=%d: %w", R, err)
		}
		hierWall := time.Since(start)

		// At the engineered 2.5x scarcity the rounded designs can leave
		// sinks below quarter weight in either arm; running the §7 repair
		// pass INSIDE the solve (opts.RepairCoverage) would heal each shard
		// before the coordination loop ever sees starvation and zero out the
		// very rounds the sweep measures, so repair the final merged designs
		// here instead and audit what would actually deploy.
		core.RepairCoverage(in, flat.Design, 4)
		core.RepairCoverage(in, hier.Design, 4)
		fa := netmodel.AuditDesign(in, flat.Design)
		ha := netmodel.AuditDesign(in, hier.Design)

		fi, hi := flat.ShardInfo, hier.ShardInfo
		row := reflectorRow{
			Reflectors: in.NumReflectors, Sinks: in.NumSinks,
			Shards: fi.Shards, Fanout: cc.Fanout,
			FlatWallNS: flatWall.Nanoseconds(), FlatRounds: fi.Rounds,
			FlatResolves: fi.Resolves, FlatCost: fa.Cost,
			FlatAuditOK: fa.StructureOK && core.MeetsGuarantee(fa, flat.PathRounding),
			HierWallNS:  hierWall.Nanoseconds(), ExchangeRounds: hi.ExchangeRounds,
			ExchangeGap: hi.ExchangeGap, ContestedReflectors: hi.ContestedReflectors,
			HierResolves: hi.Resolves, HierCost: ha.Cost,
			HierAuditOK: ha.StructureOK && core.MeetsGuarantee(ha, hier.PathRounding),
		}
		if fa.Cost > 0 {
			row.CostRatio = ha.Cost / fa.Cost
		}
		if fi.Rounds > 0 {
			row.RoundRatio = float64(hi.ExchangeRounds) / float64(fi.Rounds)
		}
		fmt.Printf("R=%d D=%d F=%d: flat %d rounds %v cost %.1f | exchange %d rounds (gap %.4f, %d contested) %v cost %.1f (%.3fx)\n",
			R, in.NumSinks, cc.Fanout, row.FlatRounds, flatWall.Round(time.Millisecond), row.FlatCost,
			row.ExchangeRounds, row.ExchangeGap, row.ContestedReflectors,
			hierWall.Round(time.Millisecond), row.HierCost, row.CostRatio)
		rows = append(rows, row)
	}
	return rows, nil
}
