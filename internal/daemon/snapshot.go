package daemon

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/live"
	"repro/internal/netmodel"
)

// SnapshotFormat is the on-disk schema version. Bump on any incompatible
// change; Read rejects unknown versions instead of misinterpreting them.
const SnapshotFormat = 1

// Snapshot is the daemon's full persistent state: everything Resume needs
// to continue the timeline warm. One JSON document, written atomically.
//
//   - Base is the instance the daemon originally booted from — the root of
//     the replayable event log (GET /scenario re-exports it unchanged
//     across restarts);
//   - Instance is the live instance as of the snapshot (Base plus every
//     SOLVED delta; queued-but-unsolved edits are in Pending instead);
//   - Events is the complete epoch-tagged ingest history;
//   - Pending are the ingested deltas no solve has consumed yet — Resume
//     re-queues them, honoring core.SessionState's contract that pending
//     work is the caller's to persist;
//   - Session is the core checkpoint: step counter, deployed design(s),
//     simplex basis factorization, aggregation partition.
type Snapshot struct {
	Format int `json:"format"`
	// Epoch is the last solved epoch index, recorded for humans reading
	// the file; Resume trusts Session.Steps.
	Epoch    int                `json:"epoch"`
	Base     *netmodel.Instance `json:"base"`
	Instance *netmodel.Instance `json:"instance"`
	Events   []live.Event       `json:"events,omitempty"`
	Pending  []netmodel.Delta   `json:"pending,omitempty"`
	Session  *core.SessionState `json:"session"`
}

// Validate checks the snapshot's internal consistency: both instances
// valid and same-shaped (deltas never resize), pending deltas in range,
// events in range of the base.
func (s *Snapshot) Validate() error {
	if s == nil {
		return fmt.Errorf("daemon: nil snapshot")
	}
	if s.Format != SnapshotFormat {
		return fmt.Errorf("daemon: snapshot format %d, want %d", s.Format, SnapshotFormat)
	}
	if s.Base == nil || s.Instance == nil {
		return fmt.Errorf("daemon: snapshot missing base or live instance")
	}
	if err := s.Base.Validate(); err != nil {
		return fmt.Errorf("daemon: snapshot base: %w", err)
	}
	if err := s.Instance.Validate(); err != nil {
		return fmt.Errorf("daemon: snapshot instance: %w", err)
	}
	bs, br, bd := s.Base.Dims()
	is, ir, id := s.Instance.Dims()
	if bs != is || br != ir || bd != id {
		return fmt.Errorf("daemon: snapshot base (%d,%d,%d) and instance (%d,%d,%d) differ in shape",
			bs, br, bd, is, ir, id)
	}
	for i := range s.Pending {
		if err := s.Pending[i].Validate(s.Instance); err != nil {
			return fmt.Errorf("daemon: snapshot pending delta %d: %w", i, err)
		}
	}
	for i := range s.Events {
		if s.Events[i].Epoch < 0 {
			return fmt.Errorf("daemon: snapshot event %d at negative epoch", i)
		}
		if err := s.Events[i].Delta.Validate(s.Base); err != nil {
			return fmt.Errorf("daemon: snapshot event %d: %w", i, err)
		}
	}
	if s.Session == nil {
		return fmt.Errorf("daemon: snapshot has no session state")
	}
	if s.Session.Steps < 0 {
		return fmt.Errorf("daemon: snapshot session has negative step counter %d", s.Session.Steps)
	}
	return nil
}

// Snapshot captures the daemon's state. Safe to call while the daemon
// serves; it synchronizes with ingest and the solver.
func (d *Daemon) Snapshot() *Snapshot {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.snapshotLocked()
}

func (d *Daemon) snapshotLocked() *Snapshot {
	return &Snapshot{
		Format:   SnapshotFormat,
		Epoch:    d.eng.Session.Steps() - 1,
		Base:     d.base.Clone(),
		Instance: d.eng.In.Clone(),
		Events:   append([]live.Event(nil), d.events...),
		Pending:  append([]netmodel.Delta(nil), d.queue...),
		Session:  d.eng.Session.ExportState(),
	}
}

// WriteSnapshot serializes the snapshot as indented JSON.
func WriteSnapshot(w io.Writer, s *Snapshot) error {
	if err := s.Validate(); err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// ReadSnapshot parses and validates a snapshot written by WriteSnapshot.
func ReadSnapshot(r io.Reader) (*Snapshot, error) {
	var s Snapshot
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("daemon: decode snapshot: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// SaveSnapshot writes the daemon's current state to path, atomically: the
// JSON goes to a temp file in the same directory and renames over the
// target, so a crash mid-write never leaves a truncated snapshot where the
// next boot will look for one.
func (d *Daemon) SaveSnapshot(path string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.saveSnapshotLocked(path)
}

func (d *Daemon) saveSnapshotLocked(path string) error {
	return writeSnapshotFile(path, d.snapshotLocked())
}

func writeSnapshotFile(path string, s *Snapshot) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".overlayd-snap-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := WriteSnapshot(tmp, s); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// LoadSnapshot reads a snapshot file written by SaveSnapshot.
func LoadSnapshot(path string) (*Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadSnapshot(f)
}
