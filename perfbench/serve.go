package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/agg"
	"repro/internal/daemon"
	"repro/internal/gen"
	"repro/internal/netmodel"
)

// Limits a rung of the daemon-serve rate ladder must meet to count as
// sustained, and the generator lateness beyond which a rung's offered rate
// is not what the generator claims.
const (
	ingestP99Limit   = 50 * time.Millisecond
	publishP99Limit  = 2 * time.Second
	lateP99Limit     = 10 * time.Millisecond
	placementRate    = 400.0
	headlineRate     = 200.0
	headlineSpan     = 6 // the headline rung's length in rungs
	publishTail      = 1500 * time.Millisecond
	viewPollInterval = 500 * time.Microsecond
)

var ladder = []float64{100, 200, 400, 800, 1600}

// setupReps is how many daemons daemon-serve's setup_s is the median of.
const setupReps = 5

// daemonServe runs overlayd in-process — daemon.New, Run with a 1 s solve
// interval, Handler() on a loopback listener — with the overlayd defaults
// (stickiness 0.4, warm, incremental, pressure 64) and aggregation on, over
// 2400 viewers (6 regions × 4 ISPs, 400 viewers per region, R=24). An open
// loop drives it from this process on two connections: one POSTs single
// deltas (viewer joins and leaves, with occasional repricing and one
// reflector outage and recovery per rung) stepping through the rate ladder,
// the other GETs /placement at 400/s throughout. Every request is timed from
// when it was due. Writes and reads share one daemon, so its lock, view
// publishing, HTTP and aggregation do the work; the LP is tiny.
//
// The headline latencies are those of the 200/s rung. Its epochs give the
// solve, epoch (publish interval), cost and churn metrics. The sustained
// rate is the highest rung up to which every rung kept ingest p99 ≤ 50 ms,
// publish-lag p99 ≤ 2 s and a queue that does not grow.
func daemonServe(b *bench) error {
	cfg := gen.DefaultClustered(2, 6, 4, 400)
	if b.tiny {
		cfg = gen.DefaultClustered(2, 2, 2, 30)
	}
	// The headline rung runs six times as long as the others: its
	// percentiles are the end-to-end metrics, and their tails move with the
	// few slow solves a window catches.
	rates, rungDur := ladder, b.budget/time.Duration(len(ladder)+headlineSpan-1)
	if b.tr != nil {
		rates = []float64{headlineRate}
	}
	base, layout := gen.ClusteredWithLayout(cfg, mix(b.seed, 1))
	cs := newChurnStream(base, mix(b.seed, 2))
	warm := make([][]netmodel.Delta, warmEpochs)
	for w := range warm {
		for k := 0; k < 64; k++ {
			warm[w] = append(warm[w], cs.next())
		}
	}
	// Overlayd's defaults, a 1 s solve interval and aggregation on.
	dcfg := daemon.Config{Stickiness: 0.4, WarmStart: true, SolveInterval: time.Second, SinkRegion: layout.SinkRegion}
	dcfg.Solver.Seed = mix(b.seed, 7)
	dcfg.Solver.IncrementalLP = true
	dcfg.Solver.Aggregate = &agg.Config{}

	// setup_s is the median over five instances of this shape, a quarter
	// of their viewers inactive like base's: how long daemon.New takes
	// depends on the instance (its first solve is cold), and one
	// instance's 2x would otherwise be the seed's setup_s. The last
	// repetition serves base, which the load then drives.
	others := make([]*netmodel.Instance, setupReps-1)
	for k := range others {
		others[k] = gen.Clustered(cfg, mix(b.seed, uint64(100+k)))
		newChurnStream(others[k], mix(b.seed, uint64(200+k)))
	}
	var sv *served
	release := func() error {
		err := sv.stop()
		sv = nil
		return err
	}
	err := b.measureSetup(setupReps, release, func(left int) error {
		in := base
		if left > 0 {
			in = others[left-1]
		}
		var err error
		sv, err = serve(b, in, dcfg)
		return err
	})
	if err != nil {
		if sv != nil {
			_ = sv.stop() // the setup error is the one to report
		}
		return err
	}
	ld := newLoad(b, sv, base, rates, rungDur, cs)
	if err = ld.warmUp(warm); err == nil {
		err = ld.run()
	}
	if serr := sv.stop(); err == nil {
		err = serr
	}
	return err
}

// served is one daemon serving on loopback, with its solver loop running.
type served struct {
	d        *daemon.Daemon
	url      string
	srv      *http.Server
	cancel   context.CancelFunc
	runErr   chan error
	serveErr chan error
	running  bool
}

// serve starts a daemon the way overlayd does and returns once /healthz
// answers 200.
func serve(b *bench, in *netmodel.Instance, cfg daemon.Config) (*served, error) {
	var d *daemon.Daemon
	var err error
	b.tr.wrap("daemon.New", nil, func() { d, err = daemon.New(in, cfg) })
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	var h http.Handler
	b.tr.wrap("daemon.Handler", nil, func() { h = d.Handler() })
	ctx, cancel := context.WithCancel(context.Background())
	s := &served{d: d, url: "http://" + ln.Addr().String(), srv: &http.Server{Handler: h},
		cancel: cancel, runErr: make(chan error, 1), serveErr: make(chan error, 1), running: true}
	go func() { s.serveErr <- s.srv.Serve(ln) }()
	go func() { s.runErr <- d.Run(ctx) }()

	c := &http.Client{Timeout: 5 * time.Second}
	defer c.CloseIdleConnections()
	for deadline := time.Now().Add(30 * time.Second); ; {
		resp, err := c.Get(s.url + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			_ = s.stop() // the health failure is the one to report
			return nil, fmt.Errorf("daemon never reported healthy (last error %v)", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stopSolver ends the solver loop and waits for it.
func (s *served) stopSolver() error {
	if !s.running {
		return nil
	}
	s.running = false
	s.cancel()
	return <-s.runErr
}

// stop ends the solver loop and the HTTP server and waits for both.
func (s *served) stop() error {
	err := s.stopSolver()
	if cerr := s.srv.Close(); err == nil {
		err = cerr
	}
	if serr := <-s.serveErr; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	return err
}

// deltaReq is one pre-generated POST /deltas of the open loop.
type deltaReq struct {
	rung  int
	due   time.Duration
	delta netmodel.Delta
	body  []byte
}

type placeReq struct {
	due  time.Duration
	sink int
}

// Ingest modes of the traced pass: the loopback request, the handler
// through an httptest.ResponseRecorder, and a direct daemon.Ingest.
const (
	modeLoopback = iota
	modeHandler
	modeDirect
)

type deltaRec struct {
	rung               int
	due, start, end    time.Time
	late               time.Duration
	ok                 bool
	epoch, queued      int
	mode               int
	handlerS, ingestS  float64
	ingestStart        time.Time
	ingestEnd          time.Time
	decodeS, validateS float64
}

type placeRec struct {
	due, start, end time.Time
	late            time.Duration
	ok              bool
	epoch           int
	mode            int
	handlerS        float64
}

// load is the open-loop generator and everything it records.
type load struct {
	b     *bench
	sv    *served
	base  *netmodel.Instance
	rates []float64
	// rungStart and rungEnd bound each rung, as offsets from t0.
	rungStart, rungEnd []time.Duration
	deltas             []deltaReq
	places             []placeReq
	t0                 time.Time
	endNS              atomic.Int64 // when the delta ladder finished (unix ns); 0 while running
	drecs              []deltaRec
	precs              []placeRec
	views              *viewLog
	rungs              []rungStat
	accepted           []netmodel.Delta
	handler            http.Handler
	shed               int
	// outages are the reflectors the traced pass fails and recovers after
	// the load; outageS the walls of the solves that absorbed the failures.
	outages []int
	outageS []float64
	warmupS float64
}

// warmEpochs is how many epochs of join/leave churn the daemon solves
// before the load starts. The first warm epochs after the cold start are
// the ones that most often fall back to a cold LP (seconds at this size,
// for about half the seeds); measured on their own as daemon.warmup_s,
// they would otherwise decide whether the first rungs pass.
const warmEpochs = 3

// churnStream generates the daemon's delta stream: single-viewer joins
// and leaves, with every 50th delta repricing one delivery arc. A quarter
// of the viewers start inactive.
type churnStream struct {
	rng    *rand.Rand
	active []bool
	target []float64
	R, D   int
	k      int
}

func newChurnStream(base *netmodel.Instance, seed uint64) *churnStream {
	cs := &churnStream{rng: rand.New(rand.NewPCG(seed, 0xd43)), R: base.NumReflectors, D: base.NumSinks,
		active: make([]bool, base.NumSinks), target: append([]float64(nil), base.Threshold...)}
	for j := range cs.active {
		cs.active[j] = cs.rng.Float64() >= 0.25
		if !cs.active[j] {
			base.Threshold[j] = 0
		}
	}
	return cs
}

func (cs *churnStream) next() netmodel.Delta {
	cs.k++
	if cs.k%50 == 25 {
		return netmodel.Delta{Note: "arc repricing", ScaleRefSinkCost: []netmodel.ArcValue{
			{A: cs.rng.IntN(cs.R), B: cs.rng.IntN(cs.D), Value: math.Exp(0.2*cs.rng.Float64() - 0.1)}}}
	}
	j := cs.rng.IntN(cs.D)
	v := cs.target[j]
	if cs.active[j] {
		v = 0
	}
	cs.active[j] = !cs.active[j]
	return netmodel.Delta{Note: "viewer join/leave", SetThreshold: []netmodel.SinkValue{{Sink: j, Value: v}}}
}

func newLoad(b *bench, sv *served, base *netmodel.Instance, rates []float64, rungDur time.Duration, cs *churnStream) *load {
	ld := &load{b: b, sv: sv, base: base, rates: rates, views: newViewLog(b)}
	for k := 0; k < 2; k++ {
		ld.outages = append(ld.outages, cs.rng.IntN(cs.R))
	}
	var at time.Duration
	for _, rate := range rates {
		dur := rungDur
		if rate == headlineRate {
			dur *= headlineSpan
		}
		ld.rungStart = append(ld.rungStart, at)
		at += dur
		ld.rungEnd = append(ld.rungEnd, at)
	}
	for r, rate := range rates {
		n := int(rate * (ld.rungEnd[r] - ld.rungStart[r]).Seconds())
		for k := 0; k < n; k++ {
			d := cs.next()
			body, err := json.Marshal(d)
			if err != nil {
				panic(err) // a Delta always marshals
			}
			due := ld.rungStart[r] + time.Duration(float64(k)/rate*float64(time.Second))
			ld.deltas = append(ld.deltas, deltaReq{rung: r, due: due, delta: d, body: body})
		}
	}
	total := at + publishTail
	viewers := base.NumViewers()
	for k := 0; ; k++ {
		due := time.Duration(float64(k) / placementRate * float64(time.Second))
		if due >= total {
			break
		}
		ld.places = append(ld.places, placeReq{due: due, sink: cs.rng.IntN(viewers)})
	}
	return ld
}

func (ld *load) run() error {
	b, d := ld.b, ld.sv.d
	ld.handler = d.Handler()
	metricsBefore := ld.scrape("/metrics")
	var ms runtimeMark
	ms.start()

	stop := make(chan struct{})
	var pollWG sync.WaitGroup
	pollWG.Add(1)
	go func() {
		defer pollWG.Done()
		ld.views.poll(d, stop)
	}()
	ld.t0 = time.Now().Add(10 * time.Millisecond)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		ld.runDeltas()
	}()
	go func() {
		defer wg.Done()
		ld.runPlacements()
	}()
	wg.Wait()
	close(stop)
	pollWG.Wait()

	// Drain: stop the solver loop, then solve the remaining queue by hand
	// (timing SolveNow against the solve inside it on the traced pass).
	if err := ld.sv.stopSolver(); err != nil {
		return fmt.Errorf("solver loop: %w", err)
	}
	var overhead []float64
	drains := 1
	if b.tr != nil {
		drains = 5
	}
	for k := 0; k < drains; k++ {
		if k > 0 {
			del := ld.deltas[k%len(ld.deltas)].delta
			if _, _, err := d.Ingest([]netmodel.Delta{del}); err != nil {
				b.op(fmt.Errorf("drain ingest: %w", err))
				continue
			}
			ld.accepted = append(ld.accepted, del)
		}
		t := time.Now()
		var info daemon.EpochInfo
		var err error
		b.tr.wrap("daemon.SolveNow", nil, func() { info, err = d.SolveNow() })
		b.op(err)
		overhead = append(overhead, since(t)-float64(info.WallNS)/1e9)
	}
	ld.views.add(d.View())
	if b.tr != nil {
		ld.outageDrill()
	}
	b.op(ld.checkMirror())
	b.op(ld.checkDrained())
	if n := ld.views.unverified.Load(); n > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d placement answers named an epoch whose view was not captured\n", n)
	}

	ld.reportE2E()
	if b.tr != nil {
		ld.reportLayers(ms.done(len(ld.drecs)+len(ld.precs)), overhead, metricsBefore)
	}
	return nil
}

// warmUp solves the warm-up epochs through the daemon's own calls, with
// the solver loop already running, and records their wall.
func (ld *load) warmUp(warm [][]netmodel.Delta) error {
	t := time.Now()
	for _, batch := range warm {
		if _, _, err := ld.sv.d.Ingest(batch); err != nil {
			return fmt.Errorf("warm-up ingest: %w", err)
		}
		ld.accepted = append(ld.accepted, batch...)
		if _, err := ld.sv.d.SolveNow(); err != nil {
			return fmt.Errorf("warm-up solve: %w", err)
		}
		ld.views.add(ld.sv.d.View())
	}
	ld.warmupS = since(t)
	return nil
}

// outageDrill fails and recovers reflectors one solve at a time. A
// reflector failure often sends the warm LP into a cold fallback lasting
// seconds at this size, in about half of the failures, so where it lands
// would decide the ladder's figures; the drill measures it on its own.
func (ld *load) outageDrill() {
	b, d := ld.b, ld.sv.d
	for _, i := range ld.outages {
		for _, del := range []netmodel.Delta{
			{Note: "reflector outage", SetFanout: []netmodel.RefValue{{Ref: i, Value: 0}}},
			{Note: "reflector recovery", SetFanout: []netmodel.RefValue{{Ref: i, Value: ld.base.Fanout[i]}}},
		} {
			if _, _, err := d.Ingest([]netmodel.Delta{del}); err != nil {
				b.op(fmt.Errorf("drill ingest: %w", err))
				continue
			}
			ld.accepted = append(ld.accepted, del)
			t := time.Now()
			var err error
			b.tr.wrap("daemon.SolveNow", nil, func() { _, err = d.SolveNow() })
			b.op(err)
			if del.SetFanout[0].Value == 0 {
				ld.outageS = append(ld.outageS, since(t))
			}
			ld.views.add(d.View())
		}
	}
}

// sleepUntil waits for t; the open loop never waits for a reply before
// its next request is due except on its own connection.
func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

func (ld *load) runDeltas() {
	b := ld.b
	client := newClient()
	defer client.CloseIdleConnections()
	var prevEnd time.Time
	cur, first, stopped := 0, 0, false
	for idx, rq := range ld.deltas {
		if rq.rung != cur {
			st := ld.evalRung(cur, ld.drecs[first:])
			ld.rungs = append(ld.rungs, st)
			// The ladder stops at the first rung that misses a limit, but
			// not before the headline rung has run.
			if stopped = !st.pass && ld.rates[cur] >= headlineRate; stopped {
				break
			}
			cur, first = rq.rung, len(ld.drecs)
		}
		due := ld.t0.Add(rq.due)
		if time.Now().After(ld.t0.Add(ld.rungEnd[rq.rung])) {
			ld.shed++ // the rung is over before this request could be sent
			continue
		}
		sleepUntil(due)
		rec := deltaRec{rung: rq.rung, due: due, start: time.Now(), mode: modeLoopback}
		rec.late = rec.start.Sub(latest(due, prevEnd))
		if b.tr != nil {
			rec.mode = idx % 3
		}
		root := b.tr.begin([]string{"loopback POST /deltas", "handler POST /deltas", "direct ingest"}[rec.mode], nil)
		var err error
		switch rec.mode {
		case modeLoopback:
			rec.epoch, rec.queued, err = postDelta(client, ld.sv.url, rq.body)
		case modeHandler:
			t := time.Now()
			sp := b.tr.begin("daemon.Handler.ServeHTTP", root)
			rr := httptest.NewRecorder()
			ld.handler.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/deltas", bytes.NewReader(rq.body)))
			sp.end()
			rec.handlerS = since(t)
			rec.epoch, rec.queued, err = ingestAnswer(rr.Code, rr.Body.Bytes())
		case modeDirect:
			var ds []netmodel.Delta
			t := time.Now()
			b.tr.wrap("netmodel.DecodeDeltas", root, func() { ds, err = netmodel.DecodeDeltas(bytes.NewReader(rq.body)) })
			rec.decodeS = since(t)
			if err == nil {
				t = time.Now()
				b.tr.wrap("netmodel.Delta.Validate", root, func() { err = ds[0].Validate(ld.base) })
				rec.validateS = since(t)
			}
			if err == nil {
				rec.ingestStart = time.Now()
				b.tr.wrap("daemon.Ingest", root, func() { rec.queued, rec.epoch, err = ld.sv.d.Ingest(ds) })
				rec.ingestEnd = time.Now()
				rec.ingestS = rec.ingestEnd.Sub(rec.ingestStart).Seconds()
			}
		}
		root.end()
		rec.end = time.Now()
		prevEnd = rec.end
		rec.ok = err == nil
		b.op(err)
		if rec.ok {
			ld.accepted = append(ld.accepted, rq.delta)
		}
		ld.drecs = append(ld.drecs, rec)
	}
	if !stopped {
		ld.rungs = append(ld.rungs, ld.evalRung(cur, ld.drecs[first:]))
	}
	ld.endNS.Store(time.Now().UnixNano())
}

func (ld *load) runPlacements() {
	b := ld.b
	client := newClient()
	defer client.CloseIdleConnections()
	var prevEnd time.Time
	for idx, pr := range ld.places {
		due := ld.t0.Add(pr.due)
		if end := ld.endNS.Load(); end != 0 && due.After(time.Unix(0, end).Add(publishTail)) {
			break
		}
		sleepUntil(due)
		rec := placeRec{due: due, start: time.Now(), mode: modeLoopback}
		rec.late = rec.start.Sub(latest(due, prevEnd))
		if b.tr != nil {
			rec.mode = idx % 2
		}
		root := b.tr.begin([]string{"loopback GET /placement", "handler GET /placement"}[rec.mode], nil)
		path := "/placement?sink=" + strconv.Itoa(pr.sink)
		var body []byte
		var err error
		if rec.mode == modeLoopback {
			body, err = get(client, ld.sv.url+path)
		} else {
			t := time.Now()
			sp := b.tr.begin("daemon.Handler.ServeHTTP", root)
			rr := httptest.NewRecorder()
			ld.handler.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, path, nil))
			sp.end()
			rec.handlerS = since(t)
			body = rr.Body.Bytes()
			if rr.Code != http.StatusOK {
				err = fmt.Errorf("GET %s: status %d", path, rr.Code)
			}
		}
		rec.end = time.Now()
		prevEnd = rec.end
		var got daemon.PlacementResponse
		if err == nil {
			err = json.Unmarshal(body, &got)
		}
		if err == nil {
			rec.epoch = got.Epoch
			sp := b.tr.begin("daemon.View", root)
			err = ld.views.verify(ld.sv.d, pr.sink, got)
			sp.end()
		}
		root.end()
		rec.ok = err == nil
		b.op(err)
		ld.precs = append(ld.precs, rec)
	}
}

func latest(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

// newClient returns a client that holds at most one connection, so each
// load goroutine is one connection.
func newClient() *http.Client {
	return &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
	}
}

func postDelta(c *http.Client, url string, body []byte) (epoch, queued int, err error) {
	resp, err := c.Post(url+"/deltas", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, 0, err
	}
	return ingestAnswer(resp.StatusCode, data)
}

func ingestAnswer(code int, data []byte) (epoch, queued int, err error) {
	if code != http.StatusAccepted {
		return 0, 0, fmt.Errorf("POST /deltas: status %d: %s", code, strings.TrimSpace(string(data)))
	}
	var ir daemon.IngestResponse
	if err := json.Unmarshal(data, &ir); err != nil {
		return 0, 0, fmt.Errorf("POST /deltas: %w", err)
	}
	return ir.Epoch, ir.QueuedEdits, nil
}

func get(c *http.Client, url string) ([]byte, error) {
	resp, err := c.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return data, nil
}

// scrape fetches a read endpoint through the handler (no extra connection).
func (ld *load) scrape(path string) []byte {
	rr := httptest.NewRecorder()
	ld.sv.d.Handler().ServeHTTP(rr, httptest.NewRequest(http.MethodGet, path, nil))
	return rr.Body.Bytes()
}

// checkMirror compares the daemon's final instance with the base instance
// plus every accepted delta, applied in acceptance order.
func (ld *load) checkMirror() error {
	mirror := ld.base.Clone()
	for i := range ld.accepted {
		if _, err := ld.accepted[i].Apply(mirror); err != nil {
			return fmt.Errorf("mirror: applying accepted delta %d: %w", i, err)
		}
	}
	var want, got bytes.Buffer
	if err := mirror.WriteJSON(&want); err != nil {
		return err
	}
	if err := ld.sv.d.View().In.WriteJSON(&got); err != nil {
		return err
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		return fmt.Errorf("the daemon's final instance differs from base + %d accepted deltas", len(ld.accepted))
	}
	return nil
}

// checkDrained reads /status after the drain: no edit may be left queued.
func (ld *load) checkDrained() error {
	var st daemon.Status
	if err := json.Unmarshal(ld.scrape("/status"), &st); err != nil {
		return fmt.Errorf("GET /status: %w", err)
	}
	if st.PendingEdits != 0 || st.PendingDeltas != 0 {
		return fmt.Errorf("/status reports %d edits still queued after the drain", st.PendingEdits)
	}
	return nil
}

// rungStat is one rung of the rate ladder.
type rungStat struct {
	rate                                  float64
	sent                                  int
	ingestP50, ingestP99, lateP99, lagP99 float64
	queueFirst, queueLast                 float64
	pass                                  bool
	why                                   string
}

// evalRung judges a finished rung on what the delta connection saw: ingest
// p99, the queue trend and the generator's own lateness. Publish lag needs
// later placements and is judged after the run (ladderPass).
func (ld *load) evalRung(r int, recs []deltaRec) rungStat {
	st := rungStat{rate: ld.rates[r], sent: len(recs), pass: true}
	if len(recs) == 0 {
		st.pass, st.why = false, "no request sent"
		return st
	}
	lat, late, queue := make([]float64, len(recs)), make([]float64, len(recs)), make([]float64, len(recs))
	for i, rec := range recs {
		lat[i] = latency(rec.ok, rec.due, rec.end)
		late[i] = rec.late.Seconds()
		queue[i] = float64(rec.queued)
	}
	st.ingestP50, st.ingestP99 = quantile(lat, 0.5), quantile(lat, 0.99)
	st.lateP99 = quantile(late, 0.99)
	q := max(1, len(queue)/4)
	st.queueFirst, st.queueLast = quantile(queue[:q], 0.5), quantile(queue[len(queue)-q:], 0.5)
	pressure := 64.0
	switch {
	case st.lateP99 > lateP99Limit.Seconds():
		st.pass, st.why = false, "load generator fell behind"
	case st.ingestP99 > ingestP99Limit.Seconds():
		st.pass, st.why = false, "ingest p99 over 50 ms"
	case st.queueLast > st.queueFirst+pressure:
		st.pass, st.why = false, "queue grows"
	}
	return st
}

// latency is a request's time from due to answer; a failed request misses
// every limit.
func latency(ok bool, due, end time.Time) float64 {
	if !ok {
		return math.Inf(1)
	}
	return end.Sub(due).Seconds()
}

// publishLags returns, for each delta record, the time from its due to the
// first placement answer whose epoch is at least the delta's epoch tag.
func (ld *load) publishLags(recs []deltaRec) []float64 {
	type seen struct {
		end   time.Time
		epoch int
	}
	var ans []seen
	hi := -1
	for _, p := range ld.precs {
		if p.ok && p.epoch > hi {
			hi = p.epoch
			ans = append(ans, seen{p.end, p.epoch})
		}
	}
	lags := make([]float64, len(recs))
	for i, rec := range recs {
		k := sort.Search(len(ans), func(k int) bool { return ans[k].epoch >= rec.epoch })
		if !rec.ok || k == len(ans) {
			lags[i] = math.Inf(1)
			continue
		}
		lags[i] = ans[k].end.Sub(rec.due).Seconds()
	}
	return lags
}

func (ld *load) rungRecs(r int) []deltaRec {
	var out []deltaRec
	for _, rec := range ld.drecs {
		if rec.rung == r {
			out = append(out, rec)
		}
	}
	return out
}

func (ld *load) reportE2E() {
	b := ld.b
	sustained := 0.0
	for r := range ld.rungs {
		st := &ld.rungs[r]
		st.lagP99 = quantile(ld.publishLags(ld.rungRecs(r)), 0.99)
		if st.pass && st.lagP99 > publishP99Limit.Seconds() {
			st.pass, st.why = false, "publish lag p99 over 2 s"
		}
		if st.pass && sustained == float64(r) {
			sustained = float64(r + 1)
		}
		verdict := "pass"
		if !st.pass {
			verdict = "FAIL: " + st.why
		}
		fmt.Fprintf(os.Stderr, "rung %5.0f/s: sent %5d  ingest p50 %7.2f ms p99 %8.2f ms  publish p99 %6.3f s  queue %4.0f→%4.0f  late p99 %6.2f ms  %s\n",
			st.rate, st.sent, 1e3*st.ingestP50, 1e3*st.ingestP99, st.lagP99, st.queueFirst, st.queueLast, 1e3*st.lateP99, verdict)
	}
	s := &samples{}
	if k := int(sustained); k > 0 && len(ld.rates) == len(ladder) {
		b.sustained = ld.rates[k-1]
	}
	h := 0
	for r, rate := range ld.rates {
		if rate == headlineRate {
			h = r
		}
	}
	if h < len(ld.rungs) && ld.rungs[h].lateP99 > lateP99Limit.Seconds() {
		b.fail(fmt.Errorf("the load generator fell behind on the %.0f/s rung (late p99 %.1f ms): the run is invalid", headlineRate, 1e3*ld.rungs[h].lateP99))
	}
	// The end-to-end latencies are those of loopback requests; the traced
	// pass sends some requests through the handler or Ingest directly.
	recs := ld.rungRecs(h)
	for _, rec := range recs {
		if rec.mode == modeLoopback {
			s.ingest = append(s.ingest, latency(rec.ok, rec.due, rec.end))
		}
	}
	s.lag = ld.publishLags(recs)
	from, to := ld.t0.Add(ld.rungStart[h]), ld.t0.Add(ld.rungEnd[h])
	for _, p := range ld.precs {
		if p.mode == modeLoopback && !p.due.Before(from) && p.due.Before(to) {
			s.place = append(s.place, latency(p.ok, p.due, p.end))
		}
	}
	var prev time.Time
	for _, ep := range ld.views.epochs() {
		if ep.seen.Before(from) || !ep.seen.Before(to) {
			continue
		}
		if !prev.IsZero() {
			s.epoch = append(s.epoch, ep.seen.Sub(prev).Seconds())
		}
		prev = ep.seen
		s.solve = append(s.solve, float64(ep.info.WallNS)/1e9)
		s.cost = append(s.cost, ep.info.TrueCost)
		s.costRatio = append(s.costRatio, ep.info.TrueCost/ep.info.LPCost)
		s.churn = append(s.churn, ep.info.ViewerChurn)
	}
	b.report(s)
}

// viewLog captures every view the daemon publishes, for checking
// placement answers against the design of the epoch they report.
type viewLog struct {
	b          *bench
	mu         sync.Mutex
	recent     map[int]*daemon.View
	seen       []epochSeen
	last       *daemon.View
	missed     int
	unverified atomic.Int64
}

type epochSeen struct {
	seen time.Time
	info daemon.EpochInfo
}

// keepViews bounds the views kept for checking: answers name the epoch
// current when they were served, a few milliseconds before the check.
const keepViews = 4

func newViewLog(b *bench) *viewLog { return &viewLog{b: b, recent: map[int]*daemon.View{}} }

// poll records each newly published view until stop closes.
func (vl *viewLog) poll(d *daemon.Daemon, stop <-chan struct{}) {
	t := time.NewTicker(viewPollInterval)
	defer t.Stop()
	for {
		vl.add(d.View())
		select {
		case <-stop:
			return
		case <-t.C:
		}
	}
}

// add records v if it is new and checks its design independently.
func (vl *viewLog) add(v *daemon.View) {
	vl.mu.Lock()
	if v == vl.last {
		vl.mu.Unlock()
		return
	}
	if vl.last != nil && v.Epoch > vl.last.Epoch+1 {
		vl.missed += v.Epoch - vl.last.Epoch - 1
	}
	vl.last = v
	vl.recent[v.Epoch] = v
	delete(vl.recent, v.Epoch-keepViews)
	vl.seen = append(vl.seen, epochSeen{time.Now(), v.Last})
	vl.mu.Unlock()
	// Colors are kept and viewers aggregated, so every epoch rounds with
	// §6.5 path rounding.
	vl.b.op(checkDesign(v.In, v.Design, true, v.Audit))
}

func (vl *viewLog) epochs() []epochSeen {
	vl.mu.Lock()
	defer vl.mu.Unlock()
	return append([]epochSeen(nil), vl.seen...)
}

// verify checks one placement answer against the design published for
// the epoch it reports.
func (vl *viewLog) verify(d *daemon.Daemon, sink int, got daemon.PlacementResponse) error {
	vl.mu.Lock()
	v := vl.recent[got.Epoch]
	vl.mu.Unlock()
	if v == nil {
		if cur := d.View(); cur.Epoch == got.Epoch {
			v = cur
		} else {
			vl.unverified.Add(1)
			return nil
		}
	}
	want := placementOf(v.In, v.Design, v.Audit.Met, v.Epoch, sink)
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("placement of sink %d differs from the design published for epoch %d", sink, got.Epoch)
	}
	return nil
}

// reportLayers fills the daemon-serve per-layer metrics of the traced pass.
func (ld *load) reportLayers(rt runtimeStats, overhead []float64, metricsBefore []byte) {
	b, m := ld.b, ld.b.layer
	zeroLayers(m)
	epochs := ld.views.epochs()
	solves := make([]epochSeen, 0, len(epochs))
	for _, ep := range epochs {
		if ep.info.Epoch > 0 {
			solves = append(solves, ep)
		}
	}
	var wall, edits, lpFree, lpRuns, ft float64
	for _, ep := range solves {
		wall += float64(ep.info.WallNS) / 1e9
		edits += float64(ep.info.Edits)
		ft += float64(ep.info.FTUpdates)
		if ep.info.Pivots == 0 && ep.info.LPPatches == 0 && ep.info.LPRebuilds == 0 &&
			ep.info.Refactorizations == 0 && ep.info.FTUpdates == 0 {
			lpFree++
		} else {
			lpRuns++
		}
	}
	n := float64(max(len(solves), 1))
	m["daemon.new_s"] = b.tr.meanS("daemon.New")
	m["daemon.solve_s"] = wall / n
	m["daemon.edits_per_solve"] = edits / n
	m["daemon.publish_overhead_s"] = mean(overhead)
	m["daemon.outage_solve_s"] = mean(ld.outageS)
	m["daemon.warmup_s"] = ld.warmupS
	m["agg.lp_free_share"] = lpFree / n
	m["lp.ft_adoption_share"] = ratio(ft, lpRuns)

	// Counters the daemon's /metrics reports, over this pass.
	after := ld.scrape("/metrics")
	delta := func(series string) float64 { return promValue(after, series) - promValue(metricsBefore, series) }
	lpWall, pivots := delta(`overlay_stage_wall_seconds_sum{stage="lp-solve"}`), delta("overlay_lp_pivots_total")
	m["lp.solve_s"] = ratio(lpWall, delta(`overlay_stage_wall_seconds_count{stage="lp-solve"}`))
	m["lp.pivots"] = pivots / n
	m["lp.s_per_pivot"] = ratio(lpWall, pivots)
	m["lp.refactorizations"] = delta("overlay_lp_refactorizations_total") / n
	m["lp.devex_resets"] = delta("overlay_lp_devex_resets_total") / n
	m["lpmodel.patch_s"] = delta(`overlay_stage_wall_seconds_sum{stage="lp-patch"}`) / n
	m["lpmodel.build_s"] = ratio(delta(`overlay_stage_wall_seconds_sum{stage="lp-build"}`), delta(`overlay_stage_wall_seconds_count{stage="lp-build"}`))
	m["lpmodel.patched_cells"] = delta("overlay_lp_patched_cells_total") / n
	m["lpmodel.rebuilds"] = delta("overlay_lp_rebuilds_total") / n
	m["round.apply_s"] = ratio(delta(`overlay_stage_wall_seconds_sum{stage="round"}`), delta(`overlay_stage_wall_seconds_count{stage="round"}`))
	m["core.repair_s"] = delta(`overlay_stage_wall_seconds_sum{stage="repair"}`) / n
	rounds := delta(`overlay_stage_runs_total{stage="round"}`)
	m["core.audit_retries"] = (rounds - lpRuns) / n
	m["core.attempts_per_design"] = ratio(rounds, lpRuns)
	m["agg.groups"] = promValue(after, "overlay_agg_groups")

	var err error
	b.tr.wrap("agg.Build", nil, func() { _, err = agg.Build(ld.base, agg.Config{}) })
	if err != nil {
		b.fail(fmt.Errorf("agg.Build: %w", err))
	}
	m["agg.build_s"] = b.tr.meanS("agg.Build")

	var queue, decode, validate, ingest, handlerD, handlerP, loopP []float64
	var blocked, waited []float64
	for _, rec := range ld.drecs {
		queue = append(queue, float64(rec.queued))
		switch rec.mode {
		case modeHandler:
			handlerD = append(handlerD, rec.handlerS)
		case modeDirect:
			decode = append(decode, rec.decodeS)
			validate = append(validate, rec.validateS)
			ingest = append(ingest, rec.ingestS)
		}
	}
	m["daemon.queue_edits"] = mean(queue)
	m["netmodel.decode_s"] = mean(decode)
	m["netmodel.validate_s"] = mean(validate)
	m["daemon.ingest_s"] = mean(ingest)
	m["http.deltas_handler_s"] = quantile(handlerD, 0.5)

	// An ingest overlaps a solve when it ran inside [published − wall,
	// published] of some epoch; its wait is its wall beyond the median of
	// the ingests that overlapped none.
	var free []float64
	for _, rec := range ld.drecs {
		if rec.mode != modeDirect || !rec.ok {
			continue
		}
		hit := false
		for _, ep := range solves {
			s := ep.seen.Add(-time.Duration(ep.info.WallNS))
			if rec.ingestStart.Before(ep.seen) && rec.ingestEnd.After(s) {
				hit = true
				break
			}
		}
		if hit {
			blocked = append(blocked, rec.ingestS)
		} else {
			free = append(free, rec.ingestS)
		}
	}
	m["daemon.ingest_blocked_share"] = ratio(float64(len(blocked)), float64(len(blocked)+len(free)))
	base := 0.0
	if len(free) > 0 {
		base = quantile(free, 0.5)
	}
	for _, w := range blocked {
		waited = append(waited, w-base)
	}
	m["daemon.ingest_wait_s"] = mean(waited)

	var late []float64
	for _, p := range ld.precs {
		late = append(late, p.late.Seconds())
		if p.mode == modeHandler {
			handlerP = append(handlerP, p.handlerS)
		} else {
			loopP = append(loopP, p.end.Sub(p.start).Seconds())
		}
	}
	for _, rec := range ld.drecs {
		late = append(late, rec.late.Seconds())
	}
	m["http.placement_handler_s"] = quantile(handlerP, 0.5)
	m["http.transport_s"] = quantile(loopP, 0.5) - quantile(handlerP, 0.5)
	m["loadgen.late_ms.p99"] = 1e3 * quantile(late, 0.99)
	m["loadgen.shed"] = float64(ld.shed)
	rt.report(m)
}

// promValue reads one series from Prometheus text exposition (0 if absent).
func promValue(text []byte, series string) float64 {
	for _, line := range strings.Split(string(text), "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err == nil {
				return v
			}
		}
	}
	return 0
}
