// Command perfbench is the repository's end-to-end benchmark. It provisions
// overlay multicast networks the way an operator meets them — cold batch
// solves, sharded churn epochs and an open-loop overlayd — checks every
// output independently of the solver's own verdict, and prints one JSON
// result line:
//
//	bash perfbench/run.sh --workload cold-provision --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// the run is repeated with spans around every call into the program's
// layers and the result carries the per-layer metrics instead (see
// README.md in this directory for what each workload exercises).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics every untraced run reports, in BENCHMARK.json
// order. Every workload defines each of them on its own operations (see
// README.md), so runs of one workload compare metric by metric.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"ok_share", "share"},
	{"solve_s.p50", "s"},
	{"cost_ratio", "ratio"},
	{"epoch_s.p50", "s"},
	{"epoch_s.p90", "s"},
	{"epoch_cost", "cost"},
	{"viewer_churn", "viewers"},
	{"ingest_ms.p50", "ms"},
	{"placement_ms.p50", "ms"},
	{"publish_lag_s.p50", "s"},
	{"publish_lag_s.p99", "s"},
}

// overheadOf lists the end-to-end metrics whose traced-minus-untraced
// difference a traced run reports as trace.overhead.<name>.
var overheadOf = []string{"solve_s.p50", "epoch_s.p50", "ingest_ms.p50", "placement_ms.p50", "publish_lag_s.p50"}

// perLayer lists the metrics every traced run reports. A layer the workload
// does not exercise reports 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"lp.solve_s", "s"}, {"lp.pivots", "count"}, {"lp.s_per_pivot", "s"},
		{"lp.refactorizations", "count"}, {"lp.devex_resets", "count"}, {"lp.ft_adoption_share", "share"},
		{"lpmodel.build_s", "s"}, {"lpmodel.rows", "count"}, {"lpmodel.nnz", "count"},
		{"lpmodel.patch_s", "s"}, {"lpmodel.patched_cells", "count"}, {"lpmodel.rebuilds", "count"},
		{"round.apply_s", "s"}, {"stround.round_s", "s"},
		{"core.repair_s", "s"}, {"core.audit_retries", "count"}, {"core.attempts_per_design", "ratio"},
		{"shard.partition_s", "s"}, {"shard.solve_s", "s"}, {"shard.exchange_s", "s"},
		{"shard.exchange_rounds", "count"}, {"shard.resolves_per_epoch", "count"},
		{"shard.extractions_skipped_share", "share"}, {"shard.contested_reflectors", "count"},
		{"agg.build_s", "s"}, {"agg.groups", "count"}, {"agg.lp_free_share", "share"},
		{"netmodel.decode_s", "s"}, {"netmodel.validate_s", "s"}, {"netmodel.apply_s", "s"}, {"netmodel.audit_s", "s"},
		{"daemon.new_s", "s"}, {"daemon.ingest_s", "s"}, {"daemon.ingest_blocked_share", "share"}, {"daemon.ingest_wait_s", "s"},
		{"daemon.solve_s", "s"}, {"daemon.publish_overhead_s", "s"}, {"daemon.outage_solve_s", "s"}, {"daemon.warmup_s", "s"},
		{"daemon.edits_per_solve", "count"}, {"daemon.queue_edits", "count"},
		{"http.placement_handler_s", "s"}, {"http.deltas_handler_s", "s"}, {"http.transport_s", "s"},
		{"runtime.gc_pause_s", "s"}, {"runtime.alloc_bytes_per_op", "bytes"},
		{"loadgen.late_ms.p99", "ms"}, {"loadgen.shed", "count"},
		{"ladder.sustained_deltas_per_s", "1/s"}, {"ingest.p99_ms", "ms"}, {"placement.p99_ms", "ms"},
	}
	for _, name := range overheadOf {
		u := ""
		for _, d := range endToEnd {
			if d.name == name {
				u = d.unit
			}
		}
		defs = append(defs, metricDef{"trace.overhead." + name, u})
	}
	return defs
}()

// workloads maps each workload name to the function that runs it.
// churn-epochs is not in BENCHMARK.json: the sharded session it drives
// publishes designs that fail the guarantee check (README.md, "Known
// failure"), so its runs report correct=false until the program is fixed.
var workloads = map[string]func(*bench) error{
	"cold-provision": coldProvision,
	"churn-epochs":   churnEpochs,
	"daemon-serve":   daemonServe,
}

// bench is the state of one benchmark run: its inputs' seed and budget, the
// operation and check counters, and the metrics the workload reports.
type bench struct {
	workload string
	seed     uint64
	budget   time.Duration
	tiny     bool
	traced   bool
	outDir   string

	attempted, failed atomic.Int64
	mu                sync.Mutex
	failures          []string // first few failure messages, for stderr

	setupS float64
	// sustained is the rate ladder's result (daemon-serve's untraced pass).
	sustained float64
	e2e       map[string]float64
	layer     map[string]float64
	// counts records the sample count behind each percentile metric.
	counts map[string]int
	tr     *tracer
}

// op counts one attempted operation and, when err is non-nil, one failure.
// Load goroutines call it concurrently.
func (b *bench) op(err error) {
	b.attempted.Add(1)
	if err != nil {
		b.fail(err)
	}
}

// fail counts a failed check on an operation already counted by op.
func (b *bench) fail(err error) {
	b.failed.Add(1)
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.failures) < 8 {
		b.failures = append(b.failures, err.Error())
	}
}

// measureSetup runs setup reps times and records the median wall as
// setup_s. setup is told how many repetitions are still to come after it;
// the last one (0 to come) sets up the state the workload measures. Before
// every repetition but the first, release (when non-nil) frees the
// previous repetition's state, untimed. A traced run reports no setup_s
// and sets up once.
func (b *bench) measureSetup(reps int, release func() error, setup func(left int) error) error {
	if b.traced {
		reps = 1
	}
	walls := make([]float64, 0, reps)
	for r := 0; r < reps; r++ {
		if r > 0 && release != nil {
			if err := release(); err != nil {
				return fmt.Errorf("setup: %w", err)
			}
		}
		runtime.GC() // the previous repetition's state is garbage now
		t := time.Now()
		if err := setup(reps - 1 - r); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		walls = append(walls, time.Since(t).Seconds())
	}
	b.setupS = quantile(walls, 0.5)
	return nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	if err := runMain(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

// runMain parses the arguments, runs one workload and writes the envelope
// line and then the result line to stdout. An error means no result.
func runMain(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: cold-provision | churn-epochs | daemon-serve")
	seed := fs.Uint64("seed", 1, "seed every input of the workload is generated from")
	seconds := fs.Int("seconds", 30, "measurement budget in seconds")
	trace := fs.Int("trace", 0, "1 runs the workload traced and reports per-layer metrics")
	size := fs.String("size", "full", "full | tiny (the self-test's sizes)")
	outDir := fs.String("out", ".bench_build", "directory for result and trace files")
	if err := fs.Parse(args); err != nil {
		return err
	}
	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || (*size != "full" && *size != "tiny") {
		return fmt.Errorf("bad arguments (workload %q, seconds %d, trace %d, size %q)", *workload, *seconds, *trace, *size)
	}
	b := &bench{
		workload: *workload,
		seed:     *seed,
		budget:   time.Duration(*seconds) * time.Second,
		tiny:     *size == "tiny",
		traced:   *trace == 1,
		outDir:   *outDir,
		e2e:      map[string]float64{},
		layer:    map[string]float64{},
		counts:   map[string]int{},
	}
	env := newEnvelope(b, *seconds)
	envJSON, err := json.Marshal(env)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "envelope %s\n", envJSON)

	if b.traced {
		err = runTraced(b, run)
	} else {
		err = run(b)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", b.workload, err)
	}
	b.e2e["setup_s"] = b.setupS
	b.e2e["peak_rss_mb"] = peakRSSMB()
	att, fl := b.attempted.Load(), b.failed.Load()
	if att < 1 {
		return fmt.Errorf("%s: no operation attempted", b.workload)
	}
	b.e2e["ok_share"] = 1 - float64(fl)/float64(att)

	defs, vals := endToEnd, b.e2e
	if b.traced {
		defs, vals = perLayer, b.layer
	}
	res := result{Correct: fl == 0, Attempted: att, Failed: fl, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			return fmt.Errorf("%s: metric %s was not measured", b.workload, d.name)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	for _, f := range b.failures {
		fmt.Fprintf(os.Stderr, "perfbench: FAILED: %s\n", f)
	}
	printSummary(b, defs, vals)
	if err := writeResult(b, env, res); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: writing result file: %v\n", err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(stdout, string(line))
	return err
}

// runTraced makes the traced run: the workload once untraced and once with
// spans, so the difference between the two passes is the tracing overhead.
// Workloads run both passes at reduced size (daemon-serve runs its rate
// ladder untraced and only the 200/s rung traced). The per-layer metrics
// come from the traced pass, plus three figures of the untraced pass that
// move too much from run to run to carry a bound: the ladder's sustained
// rate and the ingest and placement p99s.
func runTraced(b *bench, run func(*bench) error) error {
	if err := run(b); err != nil {
		return err
	}
	untraced, sustained := b.e2e, b.sustained
	b.e2e, b.layer = map[string]float64{}, map[string]float64{}
	b.tr = newTracer()
	if err := run(b); err != nil {
		return err
	}
	for _, name := range overheadOf {
		b.layer["trace.overhead."+name] = b.e2e[name] - untraced[name]
	}
	b.layer["ladder.sustained_deltas_per_s"] = sustained
	b.layer["ingest.p99_ms"] = untraced["ingest_ms.p99"]
	b.layer["placement.p99_ms"] = untraced["placement_ms.p99"]
	return b.tr.write(b)
}

func printSummary(b *bench, defs []metricDef, vals map[string]float64) {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s seed=%d traced=%v attempted=%d failed=%d\n", b.workload, b.seed, b.traced, b.attempted.Load(), b.failed.Load())
	for _, d := range defs {
		fmt.Fprintf(&sb, "  %-34s %14.6g %s", d.name, vals[d.name], d.unit)
		if n, ok := b.counts[d.name]; ok {
			fmt.Fprintf(&sb, "  (n=%d)", n)
		}
		sb.WriteByte('\n')
	}
	fmt.Fprint(os.Stderr, sb.String())
}

// writeResult stores the result with its envelope and sample counts next to
// the traces, one file per workload, seed and mode.
func writeResult(b *bench, env envelope, res result) error {
	dir := filepath.Join(b.outDir, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	doc := struct {
		Envelope envelope       `json:"envelope"`
		Result   result         `json:"result"`
		Samples  map[string]int `json:"samples"`
	}{env, res, b.counts}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", b.workload, b.seed, boolInt(b.traced))
	return os.WriteFile(filepath.Join(dir, name), append(data, '\n'), 0o644)
}

func boolInt(v bool) int {
	if v {
		return 1
	}
	return 0
}
