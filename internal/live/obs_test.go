package live

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/obs"
)

// TestObsOnOffEquivalence locks the observability layer's read-only
// contract across the whole scenario library: running a timeline with a
// full observer (metrics registry + JSONL tracer + OnEpoch hook) must
// produce a report identical to the uninstrumented run in every field
// except wall time — the tap never perturbs the solve. It also checks the
// signals actually flowed: per-epoch hook calls, the canonical epoch
// counter, the pivot counter agreeing with the report, and one epoch span
// per epoch in the trace.
func TestObsOnOffEquivalence(t *testing.T) {
	const epochs = 8
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			sc, err := Make(name, 11, epochs)
			if err != nil {
				t.Fatal(err)
			}
			off, err := Run(sc, Config{Policy: WarmStickyPolicy()})
			if err != nil {
				t.Fatal(err)
			}

			reg := obs.NewRegistry()
			obs.Canonical(reg)
			var buf bytes.Buffer
			hookCalls := 0
			cfg := Config{
				Policy:  WarmStickyPolicy(),
				Obs:     &obs.Observer{Reg: reg, Tr: obs.NewTracer(&buf)},
				OnEpoch: func(EpochReport, *SLOTracker) { hookCalls++ },
			}
			on, err := Run(sc, cfg)
			if err != nil {
				t.Fatal(err)
			}

			scrubWall(off)
			scrubWall(on)
			if !reflect.DeepEqual(off, on) {
				t.Fatal("observed run diverged from the uninstrumented run")
			}
			if hookCalls != epochs {
				t.Fatalf("OnEpoch fired %d times, want %d", hookCalls, epochs)
			}
			if got := reg.Counter(obs.MEpochsTotal).Value(); got != epochs {
				t.Fatalf("epochs_total = %v, want %d", got, epochs)
			}
			if got := reg.Counter(obs.MLPPivots).Value(); got != float64(on.TotalPivots) {
				t.Fatalf("pivot counter %v != report total %d", got, on.TotalPivots)
			}
			recs, err := obs.ReadTrace(&buf)
			if err != nil {
				t.Fatal(err)
			}
			epochSpans := 0
			for _, r := range recs {
				if r.Name == "epoch" {
					epochSpans++
				}
			}
			if epochSpans != epochs {
				t.Fatalf("%d epoch spans in the trace, want %d", epochSpans, epochs)
			}
		})
	}
}

// TestPerRegionSLOBreakdown locks the per-region availability rows: on a
// region-partitioned scenario every epoch reports one row per region, the
// rows partition the active demand units, and the registry's labeled
// region gauges mirror the last epoch's window fractions.
func TestPerRegionSLOBreakdown(t *testing.T) {
	sc := RollingISPOutage(5, 10)
	if len(sc.SinkRegion) == 0 {
		t.Fatal("scenario carries no region map")
	}
	reg := obs.NewRegistry()
	cfg := Config{Policy: WarmStickyPolicy(), Obs: &obs.Observer{Reg: reg}}
	rep, err := Run(sc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	numRegions := 0
	for _, r := range sc.SinkRegion {
		if r+1 > numRegions {
			numRegions = r + 1
		}
	}
	for _, er := range rep.Epochs {
		if len(er.Regions) != numRegions {
			t.Fatalf("epoch %d: %d region rows, want %d", er.Epoch, len(er.Regions), numRegions)
		}
		active, met := 0, 0
		for i, ra := range er.Regions {
			if ra.Region != i {
				t.Fatalf("epoch %d: region row %d labeled %d", er.Epoch, i, ra.Region)
			}
			active += ra.Active
			met += ra.Met
		}
		if active != er.ActiveSinks {
			t.Fatalf("epoch %d: region rows cover %d active sinks, epoch has %d", er.Epoch, active, er.ActiveSinks)
		}
		if met != er.MetDemand {
			t.Fatalf("epoch %d: region rows cover %d met units, epoch has %d", er.Epoch, met, er.MetDemand)
		}
	}
	last := rep.Epochs[len(rep.Epochs)-1]
	for _, ra := range last.Regions {
		got := reg.Gauge(obs.MRegionAvailability, obs.L("region", itoa(ra.Region))).Value()
		if got != ra.WindowFrac {
			t.Fatalf("region %d gauge %v != last epoch window frac %v", ra.Region, got, ra.WindowFrac)
		}
	}
}

// TestPerStreamSLOBreakdown locks the per-stream availability rows on a
// multi-stream scenario: every epoch reports one row per stream, the rows
// partition the active demand units (a unit belongs to exactly one
// commodity), and the registry's labeled stream gauges mirror the last
// epoch's fractions.
func TestPerStreamSLOBreakdown(t *testing.T) {
	sc, err := Make("streamwave", 5, 10)
	if err != nil {
		t.Fatal(err)
	}
	numStreams := 0
	for _, k := range sc.Base.Commodity {
		if k+1 > numStreams {
			numStreams = k + 1
		}
	}
	if numStreams < 2 {
		t.Fatalf("scenario has %d streams; the breakdown needs several", numStreams)
	}
	reg := obs.NewRegistry()
	cfg := Config{Policy: WarmStickyPolicy(), Obs: &obs.Observer{Reg: reg}}
	rep, err := Run(sc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, er := range rep.Epochs {
		if len(er.Streams) != numStreams {
			t.Fatalf("epoch %d: %d stream rows, want %d", er.Epoch, len(er.Streams), numStreams)
		}
		active, met := 0, 0
		for k, sa := range er.Streams {
			if sa.Stream != k {
				t.Fatalf("epoch %d: stream row %d labeled %d", er.Epoch, k, sa.Stream)
			}
			active += sa.Active
			met += sa.Met
		}
		if active != er.ActiveSinks {
			t.Fatalf("epoch %d: stream rows cover %d active sinks, epoch has %d", er.Epoch, active, er.ActiveSinks)
		}
		if met != er.MetDemand {
			t.Fatalf("epoch %d: stream rows cover %d met units, epoch has %d", er.Epoch, met, er.MetDemand)
		}
	}
	last := rep.Epochs[len(rep.Epochs)-1]
	for _, sa := range last.Streams {
		got := reg.Gauge(obs.MStreamAvailability, obs.L("stream", itoa(sa.Stream))).Value()
		if got != sa.Frac {
			t.Fatalf("stream %d gauge %v != last epoch frac %v", sa.Stream, got, sa.Frac)
		}
	}
}

// itoa avoids importing strconv for single-digit region labels in tests.
func itoa(n int) string {
	if n < 0 || n > 9 {
		panic("test helper handles single digits only")
	}
	return string(rune('0' + n))
}
