package gapflow

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/lpmodel"
	"repro/internal/netmodel"
	"repro/internal/round"
)

func TestBoxesForSinkBasic(t *testing.T) {
	// Four pairs each carrying 1/4: total mass 1 ⇒ 2 boxes, last dropped
	// ⇒ 1 kept.
	ws := []float64{4, 3, 2, 1}
	xs := []float64{0.25, 0.25, 0.25, 0.25}
	boxes := BoxesForSink(ws, xs, 0)
	if len(boxes) != 1 {
		t.Fatalf("boxes = %d, want 1", len(boxes))
	}
	// First box absorbs the top half of the mass: weights 4 and 3.
	if boxes[0].Hi != 4 || boxes[0].Lo != 3 {
		t.Fatalf("box interval [%v,%v], want [3,4]", boxes[0].Lo, boxes[0].Hi)
	}
}

func TestBoxesForSinkPartialLast(t *testing.T) {
	// Mass 1.3 ⇒ s_j = ⌈2.6⌉ = 3 boxes (2 complete + 1 partial); the
	// partial one is dropped ⇒ 2 kept.
	ws := []float64{5, 4, 3}
	xs := []float64{0.5, 0.5, 0.3}
	boxes := BoxesForSink(ws, xs, 0)
	if len(boxes) != 2 {
		t.Fatalf("boxes = %d, want 2", len(boxes))
	}
	if boxes[0].Hi != 5 || boxes[0].Lo != 5 {
		t.Fatalf("box0 = %+v", boxes[0])
	}
	if boxes[1].Hi != 5 || boxes[1].Lo != 4 {
		t.Fatalf("box1 = %+v (intervals share endpoints)", boxes[1])
	}
}

func TestBoxesForSinkDecreasingIntervals(t *testing.T) {
	ws := []float64{9, 7, 6, 5, 2, 1}
	xs := []float64{0.3, 0.3, 0.3, 0.3, 0.3, 0.3}
	boxes := BoxesForSink(ws, xs, 3)
	for b := 1; b < len(boxes); b++ {
		if boxes[b].Hi > boxes[b-1].Lo+1e-12 {
			t.Fatalf("box %d interval overlaps above predecessor: %+v vs %+v", b, boxes[b], boxes[b-1])
		}
		if boxes[b].Sink != 3 {
			t.Fatal("sink label lost")
		}
	}
}

func TestBoxesEmptyAndTiny(t *testing.T) {
	if boxes := BoxesForSink(nil, nil, 0); len(boxes) != 0 {
		t.Fatal("no pairs ⇒ no boxes")
	}
	// Mass 0.4 < 1/2 ⇒ no complete box.
	if boxes := BoxesForSink([]float64{1}, []float64{0.4}, 0); len(boxes) != 0 {
		t.Fatalf("boxes = %d, want 0", len(boxes))
	}
}

// TestEndToEndGAPGuarantees runs LP → §3 rounding → §5 GAP on several
// instances and checks the paper's §5 bounds: every sink retains ≥ 1/4 of
// its weight demand and fanout stays ≤ 4F (the combined factors).
func TestEndToEndGAPGuarantees(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		in := gen.Uniform(gen.DefaultUniform(2, 6, 14), seed)
		fs, err := lpmodel.SolveLP(in, lpmodel.DefaultOptions(in))
		if err != nil {
			t.Fatal(err)
		}
		r := round.Apply(in, fs, round.DefaultOptions(seed*31))
		res := Round(in, r.XBar)

		d := netmodel.NewDesign(in)
		for i := range res.Serve {
			copy(d.Serve[i], res.Serve[i])
		}
		d.Normalize(in)
		a := netmodel.AuditDesign(in, d)
		if a.WeightFactor < 0.25-1e-9 {
			t.Errorf("seed %d: weight factor %.4f < 1/4 (saturated %d/%d boxes)",
				seed, a.WeightFactor, res.SaturatedBoxes, res.TotalBoxes)
		}
		if a.FanoutFactor > 4+1e-9 {
			t.Errorf("seed %d: fanout factor %.4f > 4", seed, a.FanoutFactor)
		}
	}
}

// TestGAPSaturatesBoxes: the §5 argument needs the max flow to saturate the
// box demands; verify it does on typical rounded solutions.
func TestGAPSaturatesBoxes(t *testing.T) {
	in := gen.Uniform(gen.DefaultUniform(2, 6, 14), 9)
	fs, err := lpmodel.SolveLP(in, lpmodel.DefaultOptions(in))
	if err != nil {
		t.Fatal(err)
	}
	r := round.Apply(in, fs, round.DefaultOptions(77))
	res := Round(in, r.XBar)
	if res.TotalBoxes == 0 {
		t.Fatal("expected boxes")
	}
	if res.SaturatedBoxes < res.TotalBoxes {
		t.Fatalf("saturated only %d/%d boxes", res.SaturatedBoxes, res.TotalBoxes)
	}
}

// TestGAPCostBounded: the half-integral flow is a min-cost flow, so its cost
// is at most the x-portion cost of the fractional x̄ it replaced (after
// capacity reduction); doubling at most doubles it. Sanity-check the final
// x-cost against 2× the x̄ cost.
func TestGAPCostBounded(t *testing.T) {
	in := gen.Uniform(gen.DefaultUniform(2, 6, 14), 11)
	fs, err := lpmodel.SolveLP(in, lpmodel.DefaultOptions(in))
	if err != nil {
		t.Fatal(err)
	}
	r := round.Apply(in, fs, round.DefaultOptions(13))
	res := Round(in, r.XBar)
	xbarCost := 0.0
	for i := range r.XBar {
		for j, x := range r.XBar[i] {
			xbarCost += in.RefSinkCost[i][j] * x
		}
	}
	finalCost := 0.0
	for i := range res.Serve {
		for j, s := range res.Serve[i] {
			if s {
				finalCost += in.RefSinkCost[i][j]
			}
		}
	}
	// The doubled min-cost flow costs ≤ 2·(flow cost) ≤ 2·(x̄ cost) —
	// modulo the pair-capacity relaxation allowing up to a full unit per
	// pair, give a generous 4× cushion before failing.
	if finalCost > 4*xbarCost+1e-9 && finalCost > 1e-9 {
		t.Fatalf("final x cost %v far above x̄ cost %v", finalCost, xbarCost)
	}
	if res.FlowCost > xbarCost*2.000001+1e-9 {
		t.Fatalf("flow cost %v above the doubled fractional cost %v", res.FlowCost, 2*xbarCost)
	}
}

func TestGAPEmptyXBar(t *testing.T) {
	in := gen.Uniform(gen.DefaultUniform(1, 3, 4), 2)
	xbar := make([][]float64, in.NumReflectors)
	for i := range xbar {
		xbar[i] = make([]float64, in.NumSinks)
	}
	res := Round(in, xbar)
	if res.TotalBoxes != 0 || res.SaturatedBoxes != 0 {
		t.Fatal("empty x̄ must produce no boxes")
	}
	for i := range res.Serve {
		for _, s := range res.Serve[i] {
			if s {
				t.Fatal("empty x̄ must serve nothing")
			}
		}
	}
}

func TestBoxMassConservation(t *testing.T) {
	// Total kept boxes ≈ ⌈2M⌉-1 for each sink.
	ws := make([]float64, 20)
	xs := make([]float64, 20)
	for i := range ws {
		ws[i] = float64(20 - i)
		xs[i] = 0.2
	}
	// M = 4.0 ⇒ s_j = 8 ⇒ 7 kept.
	boxes := BoxesForSink(ws, xs, 0)
	want := int(math.Ceil(2*4.0)) - 1
	if len(boxes) != want {
		t.Fatalf("boxes = %d, want %d", len(boxes), want)
	}
}

// TestBoxInvariantsQuick property-checks the §5 box construction on random
// inputs: (a) the number of kept boxes is exactly ⌈2·mass⌉−1, (b) intervals
// are ordered decreasingly and within the weight range, (c) every interval
// has Lo ≤ Hi.
func TestBoxInvariantsQuick(t *testing.T) {
	check := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 24 {
			raw = raw[:24]
		}
		ws := make([]float64, len(raw))
		xs := make([]float64, len(raw))
		mass := 0.0
		for i, v := range raw {
			ws[i] = 0.1 + float64(v%97)/10 // weights in [0.1, 9.7]
			xs[i] = float64(v%31+1) / 62.0 // x in (0, 0.5]
			mass += xs[i]
		}
		boxes := BoxesForSink(ws, xs, 0)
		want := int(math.Ceil(2*mass-1e-9)) - 1
		if want < 0 {
			want = 0
		}
		if len(boxes) != want {
			t.Logf("boxes=%d want=%d mass=%v", len(boxes), want, mass)
			return false
		}
		maxW, minW := 0.0, math.Inf(1)
		for _, w := range ws {
			if w > maxW {
				maxW = w
			}
			if w < minW {
				minW = w
			}
		}
		for b, bx := range boxes {
			if bx.Lo > bx.Hi+1e-12 {
				return false
			}
			if bx.Hi > maxW+1e-12 || bx.Lo < minW-1e-12 {
				return false
			}
			if b > 0 && bx.Hi > boxes[b-1].Lo+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestBoxWeightLowerBoundQuick checks the §5 weight-accounting chain on
// random inputs: the kept boxes' half-unit lower endpoints cover at least
// Σ w·x − w_max (the ½·Σmin(w_ℓ) ≥ Σ w x̄ − ½ w_1 inequality, doubled).
func TestBoxWeightLowerBoundQuick(t *testing.T) {
	check := func(raw []uint16) bool {
		if len(raw) < 2 {
			return true
		}
		if len(raw) > 20 {
			raw = raw[:20]
		}
		ws := make([]float64, len(raw))
		xs := make([]float64, len(raw))
		var wx, wmax float64
		for i, v := range raw {
			ws[i] = 0.5 + float64(v%71)/20
			xs[i] = float64(v%17+1) / 34.0
			wx += ws[i] * xs[i]
			if ws[i] > wmax {
				wmax = ws[i]
			}
		}
		boxes := BoxesForSink(ws, xs, 0)
		got := 0.0
		for _, bx := range boxes {
			got += 0.5 * bx.Lo
		}
		return got >= wx-wmax-1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestGAPFractionalFanout: a fanout below one (the sharded pipeline hands
// each shard a fractional split of a reflector's capacity) still admits
// ⌊2F⌋ half-units, so a fully assigned sink keeps its reflector and the
// doubled assignment stays within 2F.
func TestGAPFractionalFanout(t *testing.T) {
	in := gen.Uniform(gen.DefaultUniform(1, 2, 2), 3)
	in.Fanout[0], in.Fanout[1] = 0.5, 0.4
	xbar := [][]float64{{1, 0}, {0, 1}}
	res := Round(in, xbar)
	if !res.Serve[0][0] {
		t.Fatal("fanout 0.5 admits one half-unit pair, but sink 0 lost its only reflector")
	}
	if res.Serve[1][1] {
		t.Fatal("fanout 0.4 admits no half-unit, but sink 1 was served above 2F")
	}
}
