package solverflags

import (
	"flag"
	"io"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/live"
)

func parse(t *testing.T, args ...string) *Flags {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := Register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestDefaultsLeaveOptionsAlone: with no flags given, Apply sets exactly
// the zero-value solver knobs and the stickiness default is the warm
// policy's.
func TestDefaultsLeaveOptionsAlone(t *testing.T) {
	f := parse(t)
	var opts core.Options
	if err := f.Apply(&opts); err != nil {
		t.Fatal(err)
	}
	if opts.Shards != 0 || opts.ShardLevels != 0 || opts.Aggregate != nil {
		t.Fatalf("defaults changed solver options: %+v", opts)
	}
	if f.Stickiness != live.WarmStickyPolicy().Stickiness {
		t.Fatalf("-stickiness default %g, want the warm policy's %g", f.Stickiness, live.WarmStickyPolicy().Stickiness)
	}
}

func TestApplySetsOptions(t *testing.T) {
	f := parse(t, "-shards", "4", "-shard-levels", "2", "-aggregate", "-stickiness", "0")
	var opts core.Options
	if err := f.Apply(&opts); err != nil {
		t.Fatal(err)
	}
	if opts.Shards != 4 || opts.ShardLevels != 2 || opts.Aggregate == nil || f.Stickiness != 0 {
		t.Fatalf("flags not applied: %+v stickiness %g", opts, f.Stickiness)
	}
}

func TestApplyRejects(t *testing.T) {
	for _, tc := range []struct {
		args []string
		flag string
	}{
		{[]string{"-shards", "-2"}, "-shards"},
		{[]string{"-shard-levels", "3", "-shards", "4"}, "-shard-levels"},
		{[]string{"-shard-levels", "2"}, "-shard-levels"},
		{[]string{"-stickiness", "1"}, "-stickiness"},
		{[]string{"-stickiness", "-0.1"}, "-stickiness"},
	} {
		var opts core.Options
		err := parse(t, tc.args...).Apply(&opts)
		if err == nil || !strings.HasPrefix(err.Error(), tc.flag+" ") {
			t.Errorf("%v: error %v, want one naming %s", tc.args, err, tc.flag)
		}
	}
}

// TestRemovedFlagsRejected: the solver has one pricing rule and its own
// refactorization cadence, so -pricing and -refactor-every are not declared
// and fail to parse like any unknown flag (a usage error, exit 2, in the
// CLIs).
func TestRemovedFlagsRejected(t *testing.T) {
	for _, args := range [][]string{
		{"-pricing", "dantzig"},
		{"-pricing", "devex"},
		{"-refactor-every", "40"},
	} {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		Register(fs)
		err := fs.Parse(args)
		if err == nil || !strings.Contains(err.Error(), args[0]) {
			t.Errorf("%v: parse error %v, want one naming %s", args, err, args[0])
		}
	}
}
