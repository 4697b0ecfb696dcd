package core

import (
	"testing"

	"repro/internal/gen"
)

// TestShardedFractionalAllocationMeetsGuarantee is the regression instance
// for a sharded solve that returned unserved sinks without error: the
// capacity split hands shards fanout allocations below one, which the §5
// GAP network used to floor to zero capacity, so three of eight shards
// deployed designs with weight factor 0 and the merged design failed the
// audit. The monolithic solve of the same instance meets the guarantee; the
// sharded one must too, without falling back.
func TestShardedFractionalAllocationMeetsGuarantee(t *testing.T) {
	if testing.Short() {
		t.Skip("500-sink sharded solve takes seconds; skipped with -short")
	}
	cfg := gen.DefaultClustered(2, 10, 5, 10)
	cfg.ReflectorsPerColo = 2
	R, D := cfg.Regions*cfg.ISPs*cfg.ReflectorsPerColo, cfg.Regions*cfg.SinksPerRegion
	cfg.Fanout = max(2, (3*D+R-1)/R)
	in := gen.Clustered(cfg, 960170264)
	in.Color, in.NumColors = nil, 0

	opts := DefaultOptions(7)
	opts.Shards = 8
	res, err := Solve(in, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.AuditOK() {
		t.Fatalf("sharded design fails the audit: %v", res.Audit)
	}
	if res.ShardInfo == nil || res.ShardInfo.Fallback {
		t.Fatalf("sharded solve fell back to monolithic: %+v", res.ShardInfo)
	}
}

// TestShardedFallbackReportsLevels drives the monolithic fallback: with one
// coordination round the capacity split cannot feed every shard of this
// instance, so the solve falls back and must still ship an audited design.
// ShardInfo.Levels reports the coordination that ran before the fallback,
// exactly as a solve without fallback does.
func TestShardedFallbackReportsLevels(t *testing.T) {
	cfg := gen.DefaultClustered(2, 4, 2, 8)
	cfg.Fanout = 6
	in := gen.Clustered(cfg, 1)
	in.Color, in.NumColors = nil, 0

	for _, levels := range []int{1, 2} {
		opts := DefaultOptions(7)
		opts.Shards = 6
		opts.ShardRounds = 1
		if levels == 2 {
			opts.ShardLevels = 2
		}
		res, err := Solve(in, opts)
		if err != nil {
			t.Fatal(err)
		}
		si := res.ShardInfo
		if si == nil || !si.Fallback {
			t.Fatalf("levels %d: solve did not fall back: %+v", levels, si)
		}
		if !res.AuditOK() {
			t.Fatalf("levels %d: fallback design fails the audit: %v", levels, res.Audit)
		}
		if si.Levels != levels {
			t.Fatalf("fallback ShardInfo.Levels = %d, want %d", si.Levels, levels)
		}
	}
}
