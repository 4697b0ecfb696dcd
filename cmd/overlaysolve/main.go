// Command overlaysolve runs the paper's approximation algorithm on an
// instance JSON file, prints the audit, and optionally writes the design.
//
// Usage:
//
//	overlaysolve -in instance.json [-o design.json] [-seed 1] [-c 64]
//	             [-greedy] [-exact] [-lp-only] [-shards 8] [-shard-levels 2]
//	             [-json report.json] [-pricing devex|dantzig|partial]
//	             [-refactor-every N] [-aggregate] [-prior design.json]
//	             [-stickiness 0.4]
//
// -greedy and -exact run the baseline / exact IP solver instead of the
// LP-rounding algorithm (exact is exponential: tiny instances only).
// -shards ≥ 2 solves one LP per commodity-region shard in parallel with a
// capacity-coordination pass instead of the monolithic LP — the scaling
// path for thousands of sinks. -json writes a machine-readable report
// (per-stage timings, audit, shard counters) next to the human output;
// -trace writes the hierarchical solve trace (pipeline stages, per-shard
// solves, simplex refactorization/adoption/devex events) as JSONL.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/agg"
	"repro/internal/bnb"
	"repro/internal/core"
	"repro/internal/greedy"
	"repro/internal/netmodel"
	"repro/internal/obs"
	"repro/internal/solverflags"
)

func main() {
	var (
		inPath  = flag.String("in", "", "instance JSON file (required)")
		outPath = flag.String("o", "", "write the design JSON here")
		seed    = flag.Uint64("seed", 1, "randomized-rounding seed")
		c       = flag.Float64("c", 64, "rounding constant c (§3; 64 ⇒ δ=1/4)")
		useG    = flag.Bool("greedy", false, "run the greedy baseline instead")
		useX    = flag.Bool("exact", false, "run exact branch-and-bound instead (tiny instances!)")
		lpOnly  = flag.Bool("lp-only", false, "solve the LP relaxation only")
		repair  = flag.Bool("repair", false, "top coverage up to full demand after rounding (§7 heuristic)")
		prior   = flag.String("prior", "", "prior design JSON for churn-aware re-solve (§1.3)")
		aggColo = flag.Int("agg-colo", 0, "≥2: group aggregates by cost-anchor COLO of this many reflectors instead of per reflector (caps the fold at R/N labels; needs -aggregate)")
		jsonOut = flag.String("json", "", "write a machine-readable solve report (stages, audit, shard counters) here")
		stages  = flag.Bool("stages", false, "print the per-stage pipeline instrumentation (lp-build/lp-patch/lp-solve/... wall and run counts)")
		trace   = flag.String("trace", "", "write the hierarchical solve trace (stages, shards, simplex events) as JSONL to this file")
		solver  = solverflags.Register(flag.CommandLine)
	)
	flag.Parse()
	opts := core.DefaultOptions(*seed)
	if err := solver.Apply(&opts); err != nil {
		fmt.Fprintf(os.Stderr, "overlaysolve: %v\n", err)
		os.Exit(2)
	}
	if *inPath == "" {
		fmt.Fprintln(os.Stderr, "overlaysolve: -in is required")
		flag.Usage()
		os.Exit(2)
	}
	if *jsonOut != "" && (*useG || *useX || *lpOnly) {
		fmt.Fprintln(os.Stderr, "overlaysolve: -json requires a full LP-rounding solve (not -greedy/-exact/-lp-only)")
		os.Exit(2)
	}
	if solver.Aggregate && (*useG || *useX) {
		fmt.Fprintln(os.Stderr, "overlaysolve: -aggregate requires the LP pipeline (not -greedy/-exact)")
		os.Exit(2)
	}
	if *aggColo < 0 || *aggColo == 1 {
		fmt.Fprintf(os.Stderr, "overlaysolve: -agg-colo %d out of range (want 0 = per-reflector anchors, or ≥ 2 reflectors per colo)\n", *aggColo)
		os.Exit(2)
	}
	if *aggColo >= 2 && !solver.Aggregate {
		fmt.Fprintln(os.Stderr, "overlaysolve: -agg-colo requires -aggregate")
		os.Exit(2)
	}
	if *trace != "" && (*useG || *useX) {
		fmt.Fprintln(os.Stderr, "overlaysolve: -trace requires the LP pipeline (not -greedy/-exact)")
		os.Exit(2)
	}
	in, err := netmodel.LoadFile(*inPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "overlaysolve: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("instance %s: |S|=%d |R|=%d |D|=%d colors=%d\n",
		in.Name, in.NumSources, in.NumReflectors, in.NumSinks, in.NumColors)

	var design *netmodel.Design
	var solveRes *core.Result
	start := time.Now()
	switch {
	case *useG:
		g := greedy.Greedy(in)
		design = g.Design
		fmt.Printf("greedy: covered %d/%d sinks in %v\n", g.Covered, g.Demanding, time.Since(start).Round(time.Millisecond))
	case *useX:
		res, err := bnb.Solve(in, bnb.Options{})
		if err != nil {
			fmt.Fprintf(os.Stderr, "overlaysolve: %v\n", err)
			os.Exit(1)
		}
		if res.Design == nil {
			fmt.Fprintln(os.Stderr, "overlaysolve: no feasible integral design found")
			os.Exit(1)
		}
		design = res.Design
		fmt.Printf("exact IP: cost %.4f (optimal=%v, %d nodes) in %v\n",
			res.Cost, res.Optimal, res.Nodes, time.Since(start).Round(time.Millisecond))
	default:
		opts.C = *c
		opts.LPOnly = *lpOnly
		opts.RepairCoverage = *repair
		if *aggColo >= 2 {
			opts.Aggregate.GroupOf = agg.ColoGroups(in, *aggColo)
		}
		// A trace-only observer: spans for every pipeline stage, per-shard
		// solve, and simplex event, with no metrics registry attached.
		var tracer *obs.Tracer
		if *trace != "" {
			tf, terr := os.Create(*trace)
			if terr != nil {
				fmt.Fprintf(os.Stderr, "overlaysolve: %v\n", terr)
				os.Exit(1)
			}
			defer tf.Close()
			tracer = obs.NewTracer(tf)
			opts.Obs = &obs.Observer{Tr: tracer}
		}
		var res *core.Result
		if *prior != "" {
			pf, err := os.Open(*prior)
			if err != nil {
				fmt.Fprintf(os.Stderr, "overlaysolve: %v\n", err)
				os.Exit(1)
			}
			priorDesign, err := netmodel.ReadDesignJSON(pf)
			pf.Close()
			if err != nil {
				fmt.Fprintf(os.Stderr, "overlaysolve: %v\n", err)
				os.Exit(1)
			}
			re, err := core.Reoptimize(in, priorDesign, solver.Stickiness, opts)
			if err != nil {
				fmt.Fprintf(os.Stderr, "overlaysolve: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("churn-aware re-solve: %d service arcs changed, %d reflectors flipped\n",
				re.ArcChurn, re.ReflectorChurn)
			res = re.Result
		} else {
			res, err = core.Solve(in, opts)
			if err != nil {
				fmt.Fprintf(os.Stderr, "overlaysolve: %v\n", err)
				os.Exit(1)
			}
		}
		solveRes = res
		if tracer != nil {
			if terr := tracer.Err(); terr != nil {
				fmt.Fprintf(os.Stderr, "overlaysolve: trace: %v\n", terr)
				os.Exit(1)
			}
			fmt.Printf("wrote solve trace to %s\n", *trace)
		}
		if si := res.ShardInfo; si != nil {
			fmt.Printf("sharded solve: %d shards, %d coordination rounds, %d re-solves, %d builds consolidated\n",
				si.Shards, si.Rounds, si.Resolves, si.ConsolidatedBuilds)
			if si.Levels >= 2 {
				fmt.Printf("hierarchical exchange: %d levels, %d clearing rounds, %d contested reflectors, final gap %.4f\n",
					si.Levels, si.ExchangeRounds, si.ContestedReflectors, si.ExchangeGap)
			}
			fmt.Printf("shard LPs: Σcost %.4f, Σ%d vars, Σ%d rows, Σ%d pivots, %v\n",
				res.LPCost, res.Timings.TotalVars, res.Timings.TotalRows, res.Timings.LPPivots, res.Timings.LP.Round(time.Microsecond))
		} else {
			fmt.Printf("LP relaxation: cost %.4f, %d vars, %d rows, %d pivots, %v\n",
				res.LPCost, res.Timings.TotalVars, res.Timings.TotalRows, res.Timings.LPPivots, res.Timings.LP.Round(time.Microsecond))
		}
		if *lpOnly {
			return
		}
		design = res.Design
		fmt.Printf("algorithm: %s rounding, %d retries\n", map[bool]string{true: "§6.5 path", false: "§5 GAP"}[res.PathRounding], res.Retries)
		if res.ShardInfo == nil {
			fmt.Printf("cost ratio vs LP bound: %.3f\n", res.ApproxRatio())
		}
	}

	audit := netmodel.AuditDesign(in, design)
	fmt.Printf("audit: %v\n", audit)
	if *stages && solveRes != nil {
		fmt.Println("pipeline stages:")
		for _, s := range solveRes.Stages {
			fmt.Printf("  %-18s %12s %4d run(s)\n", s.Name, s.Wall.Round(time.Microsecond), s.Runs)
		}
	}
	if *jsonOut != "" && solveRes != nil {
		if err := writeReport(*jsonOut, in, solveRes, audit); err != nil {
			fmt.Fprintf(os.Stderr, "overlaysolve: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote solve report to %s\n", *jsonOut)
	}
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "overlaysolve: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := netmodel.WriteDesignJSON(f, design); err != nil {
			fmt.Fprintf(os.Stderr, "overlaysolve: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote design to %s\n", *outPath)
	}
}

// solveReport is the -json schema: instance identity, audit verdict,
// per-stage pipeline instrumentation, and (for sharded runs) the shard
// counters. The CI smoke run checks the stage names of a -shards solve
// against this schema.
type solveReport struct {
	Instance string  `json:"instance"`
	Sinks    int     `json:"sinks"`
	Shards   int     `json:"shards"`
	Cost     float64 `json:"cost"`
	LPCost   float64 `json:"lp_cost"`
	Pivots   int     `json:"pivots"`
	Retries  int     `json:"retries"`
	AuditOK  bool    `json:"audit_ok"`
	Stages   []struct {
		Name   string `json:"name"`
		WallNS int64  `json:"wall_ns"`
		Runs   int    `json:"runs"`
	} `json:"stages"`
	ShardRounds         int     `json:"shard_rounds"`
	ShardResolves       int     `json:"shard_resolves"`
	ConsolidatedBuilds  int     `json:"consolidated_builds"`
	Fallback            bool    `json:"fallback"`
	ShardLevels         int     `json:"shard_levels,omitempty"`
	ExchangeRounds      int     `json:"shard_exchange_rounds,omitempty"`
	ContestedReflectors int     `json:"shard_contested_reflectors,omitempty"`
	ExchangeGap         float64 `json:"shard_exchange_gap,omitempty"`
}

func writeReport(path string, in *netmodel.Instance, res *core.Result, audit netmodel.Audit) error {
	rep := solveReport{
		Instance: in.Name,
		Sinks:    in.NumSinks,
		Cost:     audit.Cost,
		LPCost:   res.LPCost,
		Pivots:   res.Timings.LPPivots,
		Retries:  res.Retries,
		AuditOK:  res.AuditOK(),
	}
	if si := res.ShardInfo; si != nil {
		rep.Shards = si.Shards
		rep.ShardRounds = si.Rounds
		rep.ShardResolves = si.Resolves
		rep.ConsolidatedBuilds = si.ConsolidatedBuilds
		rep.Fallback = si.Fallback
		rep.ShardLevels = si.Levels
		rep.ExchangeRounds = si.ExchangeRounds
		rep.ContestedReflectors = si.ContestedReflectors
		rep.ExchangeGap = si.ExchangeGap
	}
	for _, s := range res.Stages {
		rep.Stages = append(rep.Stages, struct {
			Name   string `json:"name"`
			WallNS int64  `json:"wall_ns"`
			Runs   int    `json:"runs"`
		}{s.Name, s.Wall.Nanoseconds(), s.Runs})
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
