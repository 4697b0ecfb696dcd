package daemon

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/live"
	"repro/internal/lpmodel"
	"repro/internal/netmodel"
	"repro/internal/obs"
)

// testInstance returns a small clustered multi-stream instance (the
// streamwave scenario's base) — multi-stream so placement and per-stream
// SLO rows are exercised for real.
func testInstance(t *testing.T, seed uint64) *netmodel.Instance {
	t.Helper()
	sc, err := live.Make("streamwave", seed, 4)
	if err != nil {
		t.Fatal(err)
	}
	return sc.Base
}

func testConfig(seed uint64) Config {
	opts := core.DefaultOptions(seed)
	opts.IncrementalLP = true
	return Config{
		Solver:     opts,
		Stickiness: 0.4,
		WarmStart:  true,
		Pressure:   -1, // tests drive solves explicitly unless stated
	}
}

// joinDelta toggles one sink's threshold — the smallest meaningful churn.
func joinDelta(sink int, thr float64) netmodel.Delta {
	return netmodel.Delta{
		Note:         fmt.Sprintf("sink %d -> %g", sink, thr),
		SetThreshold: []netmodel.SinkValue{{Sink: sink, Value: thr}},
	}
}

func get(t *testing.T, srv *httptest.Server, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

func post(t *testing.T, srv *httptest.Server, path, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// TestDaemonAPI walks the whole HTTP surface of a freshly provisioned
// daemon: status, placement, design, ingest (valid, malformed, out of
// range), forced solves, scenario export, and the mounted obs endpoints.
func TestDaemonAPI(t *testing.T) {
	in := testInstance(t, 7)
	d, err := New(in, testConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	code, body := get(t, srv, "/status")
	if code != http.StatusOK {
		t.Fatalf("/status: %d %s", code, body)
	}
	var st Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Epoch != 0 || st.Totals.Solves != 1 || st.PendingDeltas != 0 {
		t.Fatalf("fresh daemon status: %+v", st)
	}

	// Placement: full viewer, then one stream, then error paths.
	code, body = get(t, srv, "/placement?sink=0")
	if code != http.StatusOK {
		t.Fatalf("/placement?sink=0: %d %s", code, body)
	}
	var pl PlacementResponse
	if err := json.Unmarshal(body, &pl); err != nil {
		t.Fatal(err)
	}
	if pl.Sink != 0 || pl.Epoch != 0 || len(pl.Streams) == 0 {
		t.Fatalf("placement: %+v", pl)
	}
	for _, ps := range pl.Streams {
		if ps.Active && len(ps.Reflectors) == 0 {
			t.Fatalf("active subscription with no serving reflectors: %+v", ps)
		}
	}
	k := pl.Streams[0].Stream
	code, body = get(t, srv, fmt.Sprintf("/placement?sink=0&stream=%d", k))
	if code != http.StatusOK {
		t.Fatalf("/placement single stream: %d %s", code, body)
	}
	var one PlacementResponse
	if err := json.Unmarshal(body, &one); err != nil {
		t.Fatal(err)
	}
	if len(one.Streams) != 1 || !reflect.DeepEqual(one.Streams[0], pl.Streams[0]) {
		t.Fatalf("single-stream lookup disagrees with full lookup: %+v vs %+v", one.Streams, pl.Streams[0])
	}
	if code, _ = get(t, srv, "/placement?sink=banana"); code != http.StatusBadRequest {
		t.Fatalf("non-integer sink: %d", code)
	}
	if code, _ = get(t, srv, "/placement?sink=99999"); code != http.StatusNotFound {
		t.Fatalf("out-of-range sink: %d", code)
	}
	if code, _ = get(t, srv, "/placement?sink=0&stream=99"); code != http.StatusNotFound {
		t.Fatalf("unknown stream: %d", code)
	}

	// Ingest: single object, then an array, then the failure modes.
	code, body = post(t, srv, "/deltas", `{"note":"join","set_threshold":[{"sink":0,"value":0.3}]}`)
	if code != http.StatusAccepted {
		t.Fatalf("ingest single: %d %s", code, body)
	}
	var ir IngestResponse
	if err := json.Unmarshal(body, &ir); err != nil {
		t.Fatal(err)
	}
	if ir.Deltas != 1 || ir.Edits != 1 || ir.Epoch != 1 {
		t.Fatalf("ingest response: %+v", ir)
	}
	code, body = post(t, srv, "/deltas",
		`[{"set_threshold":[{"sink":1,"value":0.25}]},{"set_fanout":[{"ref":0,"value":3}]}]`)
	if code != http.StatusAccepted {
		t.Fatalf("ingest array: %d %s", code, body)
	}
	if err := json.Unmarshal(body, &ir); err != nil {
		t.Fatal(err)
	}
	if ir.Deltas != 2 || ir.QueuedEdits != 3 {
		t.Fatalf("ingest array response: %+v", ir)
	}
	if code, body = post(t, srv, "/deltas", `{"set_treshold":[]}`); code != http.StatusBadRequest {
		t.Fatalf("typo'd field must 400: %d %s", code, body)
	}
	if code, _ = post(t, srv, "/deltas", `{"set_threshold":[{"sink":99999,"value":0.3}]}`); code != http.StatusUnprocessableEntity {
		t.Fatalf("out-of-range delta must 422: %d", code)
	}
	// The failed batch must not have queued anything.
	code, body = get(t, srv, "/status")
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.PendingDeltas != 3 || st.PendingEdits != 3 {
		t.Fatalf("queue after rejected batches: %+v", st)
	}

	// Force the solve; the queue drains into epoch 1.
	code, body = post(t, srv, "/solve", "")
	if code != http.StatusOK {
		t.Fatalf("/solve: %d %s", code, body)
	}
	var info EpochInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if info.Epoch != 1 || info.Edits != 3 {
		t.Fatalf("solve info: %+v", info)
	}
	// Warm continuity: the live LP was patched in place, never rebuilt.
	// (Basis adoption vs refactorization depends on whether the edits
	// touched basic columns — the round-trip test pins that telemetry.)
	if info.LPRebuilds != 0 || info.LPPatches == 0 {
		t.Fatalf("epoch 1 did not patch the live LP incrementally: %+v", info)
	}
	if v := d.View(); v.Epoch != 1 || v.In.Threshold[0] != 0.3 {
		t.Fatalf("published view not updated: epoch %d thr %g", v.Epoch, v.In.Threshold[0])
	}

	// Design decodes as a netmodel design of the right shape.
	code, body = get(t, srv, "/design")
	if code != http.StatusOK {
		t.Fatalf("/design: %d", code)
	}
	des, err := netmodel.ReadDesignJSON(bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if len(des.Serve) != in.NumReflectors {
		t.Fatalf("design has %d reflectors, want %d", len(des.Serve), in.NumReflectors)
	}

	// Scenario export replays: validated, carries the ingested events.
	code, body = get(t, srv, "/scenario")
	if code != http.StatusOK {
		t.Fatalf("/scenario: %d %s", code, body)
	}
	sc, err := live.ReadScenario(bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Events) != 3 || sc.Epochs != 2 {
		t.Fatalf("scenario: %d events over %d epochs", len(sc.Events), sc.Epochs)
	}

	// Mounted obs endpoints on the same listener.
	code, body = get(t, srv, "/metrics")
	if code != http.StatusOK || !strings.Contains(string(body), obs.MEpochsTotal) {
		t.Fatalf("/metrics: %d", code)
	}
	if !strings.Contains(string(body), obs.MStreamAvailability) {
		t.Fatal("/metrics missing per-stream SLO family")
	}
	if code, _ = get(t, srv, "/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz: %d", code)
	}
	code, body = get(t, srv, "/slo")
	if code != http.StatusOK {
		t.Fatalf("/slo: %d", code)
	}
	var sl obs.SLOStatus
	if err := json.Unmarshal(body, &sl); err != nil {
		t.Fatal(err)
	}
	if len(sl.Streams) == 0 {
		t.Fatalf("/slo has no per-stream rows: %+v", sl)
	}

	// Method discipline.
	if code, _ = get(t, srv, "/deltas"); code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /deltas: %d", code)
	}
	if code, _ = post(t, srv, "/placement?sink=0", ""); code != http.StatusMethodNotAllowed {
		t.Fatalf("POST /placement: %d", code)
	}
	if code, _ = post(t, srv, "/scenario", ""); code != http.StatusMethodNotAllowed {
		t.Fatalf("POST /scenario: %d", code)
	}
}

// TestDaemonPressureSolve: crossing the pressure threshold triggers a solve
// without waiting for the cadence timer.
func TestDaemonPressureSolve(t *testing.T) {
	cfg := testConfig(3)
	cfg.Pressure = 2
	d, err := New(testInstance(t, 3), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- d.Run(ctx) }()

	if _, _, err := d.Ingest([]netmodel.Delta{joinDelta(0, 0.3), joinDelta(1, 0.25)}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for d.Status().Epoch < 1 {
		if time.Now().After(deadline) {
			t.Fatal("pressure solve never happened")
		}
		time.Sleep(10 * time.Millisecond)
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if st := d.Status(); st.PendingEdits != 0 || st.Totals.Solves < 2 {
		t.Fatalf("after pressure solve: %+v", st)
	}
}

// TestDaemonScenarioReplay is the record/replay contract end to end: the
// event log a daemon exports, replayed through live.Run with the matching
// policy, reproduces the daemon's epoch stream bit-for-bit — every report
// field except the wall-clock ones.
func TestDaemonScenarioReplay(t *testing.T) {
	cfg := testConfig(11)
	d, err := New(testInstance(t, 11), cfg)
	if err != nil {
		t.Fatal(err)
	}
	infos := []EpochInfo{d.View().Last}
	for e := 1; e < 6; e++ {
		var batch []netmodel.Delta
		batch = append(batch, joinDelta((e*3)%d.View().In.NumSinks, 0.2+0.05*float64(e%4)))
		if e%2 == 0 {
			batch = append(batch, netmodel.Delta{
				Note:      fmt.Sprintf("reprice %d", e),
				SetFanout: []netmodel.RefValue{{Ref: e % d.View().In.NumReflectors, Value: float64(2 + e%3)}},
			})
		}
		if _, _, err := d.Ingest(batch); err != nil {
			t.Fatal(err)
		}
		info, err := d.SolveNow()
		if err != nil {
			t.Fatal(err)
		}
		infos = append(infos, info)
	}

	var buf bytes.Buffer
	sc, err := d.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	if err := live.WriteScenario(&buf, sc); err != nil {
		t.Fatal(err)
	}
	sc2, err := live.ReadScenario(&buf)
	if err != nil {
		t.Fatal(err)
	}

	rep, err := live.Run(sc2, live.Config{
		Solver: cfg.Solver,
		Policy: live.Policy{Name: "daemon", Stickiness: cfg.Stickiness, WarmStart: cfg.WarmStart},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Epochs) != len(infos) {
		t.Fatalf("replay ran %d epochs, daemon solved %d", len(rep.Epochs), len(infos))
	}
	for e, er := range rep.Epochs {
		got, want := scrubWall(infos[e]), scrubWall(er)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("epoch %d diverged from the replay:\ndaemon: %+v\nreplay: %+v", e, got, want)
		}
	}
}

// scrubWall zeroes an epoch report's wall-clock fields.
func scrubWall(er EpochInfo) EpochInfo {
	er.WallNS = 0
	er.StageWallNS = nil
	return er
}

// TestDaemonConcurrentIngestLookupSnapshot hammers the three access paths
// at once — ingest bursts, lock-free reads, snapshot saves — while the
// solver loop runs under pressure. Run with -race in CI's race matrix; the
// assertions here are liveness and consistency of whatever view is read.
func TestDaemonConcurrentIngestLookupSnapshot(t *testing.T) {
	cfg := testConfig(5)
	cfg.Pressure = 4
	cfg.SnapshotPath = filepath.Join(t.TempDir(), "snap.json")
	d, err := New(testInstance(t, 5), cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- d.Run(ctx) }()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	numSinks := d.View().In.NumSinks
	numViewers := d.View().In.NumViewers()
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				_, _, err := d.Ingest([]netmodel.Delta{joinDelta((w*7+i)%numSinks, 0.3)})
				if err != nil {
					t.Errorf("ingest: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			code, body := get(t, srv, fmt.Sprintf("/placement?sink=%d", i%numViewers))
			if code != http.StatusOK {
				t.Errorf("placement during churn: %d %s", code, body)
				return
			}
			v := d.View()
			if v == nil || v.Design == nil {
				t.Error("nil view during churn")
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := d.SaveSnapshot(cfg.SnapshotPath); err != nil {
				t.Errorf("snapshot during churn: %v", err)
				return
			}
		}
	}()

	time.Sleep(500 * time.Millisecond)
	close(stop)
	wg.Wait()
	cancel()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// Whatever was last snapshotted must restore.
	snap, err := LoadSnapshot(cfg.SnapshotPath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Resume(snap, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestDaemonInfeasibleEpochDegrades: an epoch whose LP is infeasible (every
// reflector's fanout set to 0) must not take the daemon down. The solver
// loop keeps running, the last good view keeps serving, /healthz answers
// 503 with the error as the reason and /status reports degraded; a
// restoring delta then solves cleanly, clears the degraded state, and the
// exported event log still replays to the same designs.
func TestDaemonInfeasibleEpochDegrades(t *testing.T) {
	cfg := testConfig(17)
	cfg.Pressure = 1
	d, err := New(testInstance(t, 17), cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- d.Run(ctx) }()

	good := d.View()
	outage := netmodel.Delta{Note: "all reflectors down"}
	restore := netmodel.Delta{Note: "all reflectors back"}
	for i, f := range good.In.Fanout {
		outage.SetFanout = append(outage.SetFanout, netmodel.RefValue{Ref: i, Value: 0})
		restore.SetFanout = append(restore.SetFanout, netmodel.RefValue{Ref: i, Value: f})
	}
	waitStatus := func(what string, ok func(Status) bool) Status {
		t.Helper()
		deadline := time.Now().Add(20 * time.Second)
		for {
			st := d.Status()
			if ok(st) {
				return st
			}
			select {
			case err := <-done:
				t.Fatalf("solver loop exited while waiting for %s: %v", what, err)
			default:
			}
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s: %+v", what, st)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	if _, _, err := d.Ingest([]netmodel.Delta{outage}); err != nil {
		t.Fatal(err)
	}
	st := waitStatus("the degraded state", func(st Status) bool { return st.Degraded })
	if !strings.Contains(st.DegradedReason, "infeasible") || st.Epoch != 0 || st.Totals.Solves != 1 {
		t.Fatalf("degraded status: %+v", st)
	}
	if d.View() != good {
		t.Fatal("a failed solve replaced the published view")
	}
	if _, err := d.SolveNow(); !errors.Is(err, lpmodel.ErrInfeasible) {
		t.Fatalf("retrying the infeasible epoch: %v", err)
	}
	code, body := get(t, srv, "/healthz")
	var h obs.HealthStatus
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if code != http.StatusServiceUnavailable || h.OK || h.Reason != st.DegradedReason {
		t.Fatalf("/healthz while degraded: %d %s", code, body)
	}
	if code, body = get(t, srv, "/placement?sink=0"); code != http.StatusOK {
		t.Fatalf("/placement while degraded: %d %s", code, body)
	}

	if _, _, err := d.Ingest([]netmodel.Delta{restore}); err != nil {
		t.Fatal(err)
	}
	st = waitStatus("the recovery solve", func(st Status) bool { return st.Epoch == 1 })
	if st.Degraded || st.DegradedReason != "" || !st.Last.AuditOK || st.Last.Edits != outage.Size()+restore.Size() {
		t.Fatalf("status after recovery: %+v", st)
	}
	if code, body = get(t, srv, "/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz after recovery: %d %s", code, body)
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	sc, err := d.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := live.Run(sc, live.Config{
		Solver: cfg.Solver,
		Policy: live.Policy{Name: "daemon", Stickiness: cfg.Stickiness, WarmStart: cfg.WarmStart},
	})
	if err != nil {
		t.Fatal(err)
	}
	// The failed solve's simplex work stays in the persisted LP, so the
	// recovery epoch's solver-effort counters differ from a replay that
	// never failed; the design and everything derived from it must not.
	effortless := func(er EpochInfo) EpochInfo {
		er = scrubWall(er)
		er.Pivots, er.LPPatches, er.LPRebuilds = 0, 0, 0
		er.Refactorizations, er.FTUpdates, er.DevexResets = 0, 0, 0
		return er
	}
	for e, want := range []EpochInfo{good.Last, d.View().Last} {
		if got := effortless(rep.Epochs[e]); !reflect.DeepEqual(effortless(want), got) {
			t.Fatalf("epoch %d diverged from the replay:\ndaemon: %+v\nreplay: %+v", e, effortless(want), got)
		}
	}
}
