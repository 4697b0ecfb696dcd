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
