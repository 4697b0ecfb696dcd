// Package solverflags declares the solver flags the overlay CLIs share —
// -shards, -shard-levels, -aggregate and -stickiness — once, with one
// default, one help text and one validation each, so overlaysolve,
// overlaylive and overlayd cannot drift apart.
package solverflags

import (
	"flag"
	"fmt"

	"repro/internal/agg"
	"repro/internal/core"
	"repro/internal/live"
)

// Flags holds the parsed values of the shared solver flags.
type Flags struct {
	Shards      int
	ShardLevels int
	Aggregate   bool
	// Stickiness is the policy knob, not a solver option: callers hand it
	// to their live.Policy, daemon.Config or core.Reoptimize call.
	Stickiness float64
}

// Register declares the shared flags on fs.
func Register(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.IntVar(&f.Shards, "shards", 0, "≥2: solve one LP per commodity-region shard in parallel, with per-shard warm state (internal/shard)")
	fs.IntVar(&f.ShardLevels, "shard-levels", 0, "2: fold shards into super-shards and clear capacity with the hierarchical dual-price exchange (needs -shards ≥ 2)")
	fs.BoolVar(&f.Aggregate, "aggregate", false, "fold viewers into weighted super-sinks before the LP and disaggregate after (internal/agg)")
	fs.Float64Var(&f.Stickiness, "stickiness", live.WarmStickyPolicy().Stickiness,
		"cost discount on the deployed design when re-solving, in [0,1); 0 disables stickiness")
	return f
}

// Apply validates the flags and sets the solver options they control. The
// error reads as a usage message naming the offending flag.
func (f *Flags) Apply(opts *core.Options) error {
	switch {
	case f.Shards < 0:
		return fmt.Errorf("-shards must be ≥ 0, got %d", f.Shards)
	case f.ShardLevels < 0 || f.ShardLevels > 2:
		return fmt.Errorf("-shard-levels must be 0/1 (flat) or 2 (hierarchical), got %d", f.ShardLevels)
	case f.ShardLevels >= 2 && f.Shards < 2:
		return fmt.Errorf("-shard-levels 2 requires -shards ≥ 2")
	case f.Stickiness < 0 || f.Stickiness >= 1:
		return fmt.Errorf("-stickiness must be in [0,1), got %g", f.Stickiness)
	}
	opts.Shards = f.Shards
	opts.ShardLevels = f.ShardLevels
	if f.Aggregate {
		opts.Aggregate = &agg.Config{}
	}
	return nil
}
