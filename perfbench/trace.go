package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one call into a layer of the program, timed from the benchmark's
// side of the call. Spans of one solve, epoch or request share Root.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Root   int64  `json:"root"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`

	t *tracer
}

// tracer keeps every span in memory until the run ends. A nil *tracer is
// the untraced mode: begin returns nil and end on a nil span does nothing,
// so untraced runs pay one nil check per call site.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	next  int64
	spans []*span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent (nil starts a new root).
func (t *tracer) begin(name string, parent *span) *span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.next++
	s := &span{ID: t.next, Name: name, t: t}
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	s.Root = s.ID
	if parent != nil {
		s.Parent, s.Root = parent.ID, parent.Root
	}
	s.Start = time.Since(t.t0).Nanoseconds()
	return s
}

func (s *span) end() {
	if s == nil {
		return
	}
	s.End = time.Since(s.t.t0).Nanoseconds()
}

// wrap times f as a span under parent.
func (t *tracer) wrap(name string, parent *span, f func()) {
	s := t.begin(name, parent)
	f()
	s.end()
}

// layerStat aggregates the spans of one name.
type layerStat struct {
	name        string
	count       int
	total, self time.Duration
}

// stats computes per-name totals and self times: a span's self time is
// its duration minus the part of it its children cover.
func (t *tracer) stats() map[string]*layerStat {
	children := map[int64][]*span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]*layerStat{}
	for _, s := range t.spans {
		if s.End == 0 {
			continue
		}
		st := out[s.Name]
		if st == nil {
			st = &layerStat{name: s.Name}
			out[s.Name] = st
		}
		dur := time.Duration(s.End - s.Start)
		st.count++
		st.total += dur
		st.self += dur - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals clipped
// to the parent's.
func covered(p *span, kids []*span) time.Duration {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, p.Start), min(k.End, p.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	for _, v := range ivs {
		if v.b <= end {
			continue
		}
		total += v.b - max(v.a, end)
		end = v.b
	}
	return time.Duration(total)
}

// meanS is the mean duration in seconds of the spans named name (0 if none).
func (t *tracer) meanS(name string) float64 {
	st := t.stats()[name]
	if st == nil || st.count == 0 {
		return 0
	}
	return st.total.Seconds() / float64(st.count)
}

// write stores the spans as JSONL and the self-time table as text, and
// prints the table to stderr.
func (t *tracer) write(b *bench) error {
	dir := filepath.Join(b.outDir, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", b.workload, b.seed))
	f, err := os.Create(base + ".jsonl")
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, s := range t.spans {
		fmt.Fprintf(w, `{"id":%d,"parent":%d,"root":%d,"name":%q,"start_ns":%d,"end_ns":%d}`+"\n",
			s.ID, s.Parent, s.Root, s.Name, s.Start, s.End)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	table := t.selfTable()
	fmt.Fprint(os.Stderr, table)
	return os.WriteFile(base+".selftime.txt", []byte(table), 0o644)
}

// selfTable renders per-layer call counts, total and self time, largest
// self time first.
func (t *tracer) selfTable() string {
	var rows []*layerStat
	var all time.Duration
	for _, st := range t.stats() {
		rows = append(rows, st)
		all += st.self
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].self > rows[j].self })
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-34s %8s %12s %12s %7s\n", "layer call", "calls", "total_s", "self_s", "self%")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-34s %8d %12.4f %12.4f %6.1f%%\n", r.name, r.count, r.total.Seconds(), r.self.Seconds(),
			100*ratio(r.self.Seconds(), all.Seconds()))
	}
	return sb.String()
}
