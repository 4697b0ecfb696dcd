package lpmodel

// Golden tests for the sparse revised simplex on the actual overlay
// relaxations: every instance family must reproduce the dense reference
// solver's optimum within 1e-6, and warm-started re-solves must agree with
// cold ones.

import (
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/lp"
	"repro/internal/netmodel"
)

// overlayFixtures returns the instance set the golden comparisons run on:
// uniform shapes across sizes, a clustered instance with §6.4 colors, and
// a bandwidth-heterogeneous one.
func overlayFixtures() []*netmodel.Instance {
	return []*netmodel.Instance{
		gen.Uniform(gen.DefaultUniform(1, 4, 8), 11),
		gen.Uniform(gen.DefaultUniform(2, 6, 12), 12),
		gen.Uniform(gen.DefaultUniform(2, 8, 20), 3), // the T7 benchmark instance
		gen.Uniform(gen.DefaultUniform(3, 10, 28), 13),
		gen.Clustered(gen.DefaultClustered(2, 2, 2, 4), 5),
	}
}

func TestSparseMatchesDenseOnOverlayLPs(t *testing.T) {
	for fi, in := range overlayFixtures() {
		opts := DefaultOptions(in)
		p, _ := Build(in, opts)
		sparse, err := p.Solve()
		if err != nil {
			t.Fatalf("fixture %d: sparse: %v", fi, err)
		}
		pd, _ := Build(in, opts)
		dense, err := pd.SolveOpts(lp.Options{Dense: true})
		if err != nil {
			t.Fatalf("fixture %d: dense: %v", fi, err)
		}
		if sparse.Status != lp.Optimal || dense.Status != lp.Optimal {
			t.Fatalf("fixture %d: status sparse=%v dense=%v", fi, sparse.Status, dense.Status)
		}
		if math.Abs(sparse.Objective-dense.Objective) > 1e-6 {
			t.Fatalf("fixture %d: sparse %.9f != dense %.9f", fi, sparse.Objective, dense.Objective)
		}
		if err := p.CheckFeasible(sparse.X, 1e-6); err != nil {
			t.Fatalf("fixture %d: sparse point infeasible: %v", fi, err)
		}
	}
}

// TestWarmStartAcrossRebuiltModel: a basis captured from one SolveLP call
// must warm-start a freshly built model of the same instance (the shape is
// identical even though the Problem object is new) and reach the same
// optimum with almost no work.
func TestWarmStartAcrossRebuiltModel(t *testing.T) {
	in := gen.Uniform(gen.DefaultUniform(2, 6, 12), 12)
	opts := DefaultOptions(in)
	cold, err := SolveLP(in, opts)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Basis == nil {
		t.Fatal("SolveLP returned nil basis")
	}
	wopts := opts
	wopts.WarmStart = cold.Basis
	warm, err := SolveLP(in, wopts)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(warm.Cost-cold.Cost) > 1e-6 {
		t.Fatalf("warm cost %.9f != cold cost %.9f", warm.Cost, cold.Cost)
	}
	if warm.Iterations > 2 {
		t.Fatalf("warm re-solve of the identical model took %d pivots", warm.Iterations)
	}
}

// TestWarmStartAfterCostScaling mirrors the Reoptimize workload at the
// lpmodel layer: discount some arc costs (stickiness) and re-solve warm.
func TestWarmStartAfterCostScaling(t *testing.T) {
	in := gen.Uniform(gen.DefaultUniform(2, 8, 20), 3)
	opts := DefaultOptions(in)
	base, err := SolveLP(in, opts)
	if err != nil {
		t.Fatal(err)
	}
	biased := in.Clone()
	for i := 0; i < biased.NumReflectors; i++ {
		for j := 0; j < biased.NumSinks; j++ {
			if (i+j)%2 == 0 {
				biased.RefSinkCost[i][j] *= 0.6
			}
		}
	}
	coldB, err := SolveLP(biased, opts)
	if err != nil {
		t.Fatal(err)
	}
	wopts := opts
	wopts.WarmStart = base.Basis
	warmB, err := SolveLP(biased, wopts)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(warmB.Cost-coldB.Cost) > 1e-6 {
		t.Fatalf("warm cost %.9f != cold cost %.9f", warmB.Cost, coldB.Cost)
	}
	if warmB.Iterations >= coldB.Iterations {
		t.Fatalf("warm start did not reduce pivots: warm=%d cold=%d", warmB.Iterations, coldB.Iterations)
	}
	t.Logf("cost-scaled re-solve: warm=%d cold=%d pivots", warmB.Iterations, coldB.Iterations)
}

// BenchmarkOverlayLPSparseVsDense compares the solvers on the §2
// relaxation of the T7 benchmark instance (the acceptance workload).
func BenchmarkOverlayLPSparseVsDense(b *testing.B) {
	in := gen.Uniform(gen.DefaultUniform(2, 8, 20), 3)
	bench := func(b *testing.B, o lp.Options) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p, _ := Build(in, DefaultOptions(in))
			if _, err := p.SolveOpts(o); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("sparse", func(b *testing.B) { bench(b, lp.Options{}) })
	b.Run("dense", func(b *testing.B) { bench(b, lp.Options{Dense: true}) })
}

// BenchmarkOverlayLPWarmVsCold measures the warm-start payoff on a
// cost-scaled re-solve (the churn workload).
func BenchmarkOverlayLPWarmVsCold(b *testing.B) {
	in := gen.Uniform(gen.DefaultUniform(2, 8, 20), 3)
	base, err := SolveLP(in, DefaultOptions(in))
	if err != nil {
		b.Fatal(err)
	}
	biased := in.Clone()
	for i := 0; i < biased.NumReflectors; i++ {
		for j := 0; j < biased.NumSinks; j++ {
			if (i+j)%2 == 0 {
				biased.RefSinkCost[i][j] *= 0.6
			}
		}
	}
	b.Run("warm", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			opts := DefaultOptions(biased)
			opts.WarmStart = base.Basis
			if _, err := SolveLP(biased, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := SolveLP(biased, DefaultOptions(biased)); err != nil {
				b.Fatal(err)
			}
		}
	})
}
