package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// span is one timed call into a layer of the program, recorded from the
// benchmark's side of the call. Spans of one operation (a read, a commit, a
// restart, a probe) share Req; Parent is the ID of the span that was open
// when this one began (0 at the top).
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Req    int64   `json:"req"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_ms"`
	End    float64 `json:"end_ms"`
	Allocs uint64  `json:"allocs"`
	Bytes  uint64  `json:"bytes"`
}

func (s *span) dur() float64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing and costs one nil check per call, which is how the untraced run
// keeps its end-to-end numbers free of tracing. It is used from one
// goroutine: every span begins and ends on the benchmark's client loop.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int // indexes into spans of the spans not yet ended
	req   int64
	ms    runtime.MemStats
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// request starts a new operation: spans begun from now on carry its id.
func (t *tracer) request() {
	if t != nil {
		t.req++
	}
}

// begin opens a span and returns its handle for end.
func (t *tracer) begin(name string) int {
	if t == nil {
		return 0
	}
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.spans[t.open[n-1]].ID
	}
	runtime.ReadMemStats(&t.ms)
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Req: t.req, Name: name,
		Allocs: t.ms.Mallocs, Bytes: t.ms.TotalAlloc,
	})
	idx := len(t.spans) - 1
	t.open = append(t.open, idx)
	t.spans[idx].Start = ms(time.Since(t.t0))
	return idx + 1
}

// end closes the span begun with handle h (and any span opened after it
// that was left open by an early return).
func (t *tracer) end(h int) {
	if t == nil || h == 0 {
		return
	}
	now := ms(time.Since(t.t0))
	runtime.ReadMemStats(&t.ms)
	for len(t.open) > 0 {
		idx := t.open[len(t.open)-1]
		t.open = t.open[:len(t.open)-1]
		s := &t.spans[idx]
		s.End = now
		s.Allocs = t.ms.Mallocs - s.Allocs
		s.Bytes = t.ms.TotalAlloc - s.Bytes
		if idx == h-1 {
			return
		}
	}
}

// named returns the spans called name.
func (t *tracer) named(name string) []*span {
	var out []*span
	for i := range t.spans {
		if t.spans[i].Name == name {
			out = append(out, &t.spans[i])
		}
	}
	return out
}

// layerRow aggregates the spans of one name.
type layerRow struct {
	name          string
	calls         int
	total, self   float64 // ms
	allocs, bytes uint64
}

// table aggregates spans by name. A span's self time is its duration minus
// the durations of its children; children never overlap because every span
// is opened and closed on one goroutine.
func (t *tracer) table() []layerRow {
	child := make(map[int]float64)
	for i := range t.spans {
		if p := t.spans[i].Parent; p != 0 {
			child[p] += t.spans[i].dur()
		}
	}
	rows := map[string]*layerRow{}
	for i := range t.spans {
		s := &t.spans[i]
		r := rows[s.Name]
		if r == nil {
			r = &layerRow{name: s.Name}
			rows[s.Name] = r
		}
		r.calls++
		r.total += s.dur()
		r.self += s.dur() - child[s.ID]
		r.allocs += s.Allocs
		r.bytes += s.Bytes
	}
	out := make([]layerRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// printTable writes the per-layer table: calls, total and self time, and
// allocations per call, grouped by layer (the span name's prefix).
func (t *tracer) printTable(w io.Writer) {
	fmt.Fprintf(w, "%-10s %-22s %7s %11s %11s %13s %12s\n",
		"layer", "span", "calls", "total_ms", "self_ms", "allocs/call", "kB/call")
	for _, r := range t.table() {
		layer, _, _ := strings.Cut(r.name, ".")
		fmt.Fprintf(w, "%-10s %-22s %7d %11.2f %11.2f %13.0f %12.1f\n",
			layer, r.name, r.calls, r.total, r.self,
			float64(r.allocs)/float64(r.calls), float64(r.bytes)/float64(r.calls)/1e3)
	}
}

// write stores every span as one JSON array.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(t.spans); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
