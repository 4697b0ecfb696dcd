// Package gapflow implements the final rounding stage of the paper (§5): a
// modified Generalized Assignment Problem conversion that turns the
// fractional x̄ left by the §3 randomized rounding into a 0-1 assignment
// while losing at most a factor 2 on weight and fanout (for a combined
// end-to-end factor of 4).
//
// It builds the 5-level network of Figure 2:
//
//	level 1: source s
//	level 2: reflectors, edge s→i of capacity F_i
//	level 3: (reflector, sink) pairs with x̄_ij > 0, edge i→(i,j) of
//	         capacity 1 and cost c_ij
//	level 4: per-sink "boxes", one per half-unit of fractional coverage
//	         (sorted by weight, the possibly-partial last box dropped);
//	         each box carries the weight interval it absorbed, and a pair
//	         connects to a box (capacity 1/2) iff its weight lies in the
//	         box's interval
//	level 5: sink t, one capacity-1/2 edge per box
//
// All capacities are multiples of 1/2, so scaling by 2 gives an integral
// min-cost max-flow problem; the resulting half-integral assignment is
// doubled into a 0-1 assignment.
package gapflow

import (
	"math"
	"sort"

	"repro/internal/mcmf"
	"repro/internal/netmodel"
)

// Box is one level-4 node: a half-unit of fractional coverage of a sink,
// annotated with the weight interval [Lo, Hi] it absorbed.
type Box struct {
	Sink   int
	Lo, Hi float64
}

// Result reports the integralization outcome.
type Result struct {
	// Serve is the final 0-1 assignment x.
	Serve [][]bool
	// Boxes built per sink (after dropping the last), and how many the
	// max-flow saturated; unsaturated boxes lower the weight guarantee
	// and are surfaced here rather than hidden.
	TotalBoxes, SaturatedBoxes int
	// FlowCost is the cost of the chosen assignment's x-part before
	// doubling (i.e. of the half-integral flow).
	FlowCost float64
}

// epsilon below which a fractional x̄ is treated as zero.
const xEps = 1e-12

// Round converts the fractional assignment xbar into a 0-1 assignment.
// Weights used for box construction are the capped weights min(w_ij, W_j),
// matching the WLOG of §4.
func Round(in *netmodel.Instance, xbar [][]float64) *Result {
	_, R, D := in.Dims()

	// --- Level 4: box construction per sink (§5). ---
	type pairRef struct {
		refl int
		w    float64
		x    float64
	}
	pairsBySink := make([][]pairRef, D)
	for i := 0; i < R; i++ {
		for j := 0; j < D; j++ {
			if xbar[i][j] > xEps {
				pairsBySink[j] = append(pairsBySink[j], pairRef{refl: i, w: in.CappedWeight(i, j), x: xbar[i][j]})
			}
		}
	}
	var boxes []Box
	boxStart := make([]int, D+1)
	for j := 0; j < D; j++ {
		ps := pairsBySink[j]
		sort.Slice(ps, func(a, b int) bool { return ps[a].w > ps[b].w })
		pairsBySink[j] = ps
		boxStart[j] = len(boxes)
		if len(ps) == 0 {
			continue
		}
		// Walk the sorted mass in half-unit chunks.
		var complete []Box
		mass := 0.0
		hi := ps[0].w
		for _, p := range ps {
			mass += p.x
			for mass >= 0.5-1e-12 {
				complete = append(complete, Box{Sink: j, Lo: p.w, Hi: hi})
				mass -= 0.5
				hi = p.w
			}
		}
		// Drop the last box: the partial remainder if any mass is left,
		// otherwise the last complete box (§5: "we then eliminate the
		// last box for each sink", with s_j = ⌈2Σx̄⌉ boxes total).
		if mass < 1e-9 && len(complete) > 0 {
			complete = complete[:len(complete)-1]
		}
		boxes = append(boxes, complete...)
	}
	boxStart[D] = len(boxes)

	// --- Flow network (capacities ×2 so half-units are integral). ---
	// Nodes: 0 = source, 1..R = reflectors, then pairs, then boxes, then t.
	nPairs := 0
	for j := 0; j < D; j++ {
		nPairs += len(pairsBySink[j])
	}
	g := mcmf.New(1 + R + nPairs + len(boxes) + 1)
	src := 0
	reflNode := func(i int) int { return 1 + i }
	pairBase := 1 + R
	boxBase := pairBase + nPairs
	t := boxBase + len(boxes)

	reflUsed := make([]bool, R)
	type pairEdge struct {
		refl, sink int
		edgeID     int
	}
	var pairEdges []pairEdge
	pn := pairBase
	for j := 0; j < D; j++ {
		for _, p := range pairsBySink[j] {
			if !reflUsed[p.refl] {
				reflUsed[p.refl] = true
				// s → reflector, capacity F_i (scaled ×2).
				capF := int64(math.Floor(2*in.Fanout[p.refl] + 1e-9))
				g.AddEdge(src, reflNode(p.refl), capF, 0)
			}
			// reflector → pair, capacity 1 (scaled 2), cost per
			// original unit c_ij ⇒ c_ij/2 per scaled unit.
			id := g.AddEdge(reflNode(p.refl), pn, 2, in.RefSinkCost[p.refl][j]/2)
			pairEdges = append(pairEdges, pairEdge{refl: p.refl, sink: j, edgeID: id})
			// pair → boxes whose interval contains w (cap 1/2 ⇒ 1).
			for b := boxStart[j]; b < boxStart[j+1]; b++ {
				bx := boxes[b]
				if p.w >= bx.Lo-1e-12 && p.w <= bx.Hi+1e-12 {
					g.AddEdge(pn, boxBase+b, 1, 0)
				}
			}
			pn++
		}
	}
	for b := range boxes {
		// box → t, capacity 1/2 (scaled 1).
		g.AddEdge(boxBase+b, t, 1, 0)
	}

	flow := g.MinCostMaxFlow(src, t)

	res := &Result{
		Serve:          make([][]bool, R),
		TotalBoxes:     len(boxes),
		SaturatedBoxes: int(flow.Flow),
		FlowCost:       flow.Cost,
	}
	for i := 0; i < R; i++ {
		res.Serve[i] = make([]bool, D)
	}
	// Doubling: any pair carrying ≥ 1/2 unit (scaled ≥ 1) serves the sink.
	for _, pe := range pairEdges {
		if g.Flow(pe.edgeID) >= 1 {
			res.Serve[pe.refl][pe.sink] = true
		}
	}
	return res
}

// BoxesForSink exposes the §5 box construction for a single sink — used by
// the unit tests that reconstruct Figure 2 and by the experiment harness.
// It returns the kept boxes (after dropping the last).
func BoxesForSink(weights, xs []float64, sink int) []Box {
	type pw struct{ w, x float64 }
	ps := make([]pw, len(weights))
	for i := range weights {
		ps[i] = pw{weights[i], xs[i]}
	}
	sort.Slice(ps, func(a, b int) bool { return ps[a].w > ps[b].w })
	var complete []Box
	mass := 0.0
	if len(ps) == 0 {
		return nil
	}
	hi := ps[0].w
	for _, p := range ps {
		if p.x <= xEps {
			continue
		}
		mass += p.x
		for mass >= 0.5-1e-12 {
			complete = append(complete, Box{Sink: sink, Lo: p.w, Hi: hi})
			mass -= 0.5
			hi = p.w
		}
	}
	if mass < 1e-9 && len(complete) > 0 {
		complete = complete[:len(complete)-1]
	}
	return complete
}
