package main

// Span tracing from the benchmark's side of each layer boundary. Every call
// the benchmark makes into a layer (sim.Run, fault.Run, core.Prune, a
// heuristic's Plan, the exact and ILP solvers, the input generators) can be
// bracketed by a span. Spans are kept in memory per cell and merged into
// the sweep's tracer when the cell ends; nothing is written until the run
// is over. A nil *cellTrace records nothing, so the untraced path pays one
// nil check per boundary.

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"

	"ocd/internal/core"
	"ocd/internal/sim"
)

// span is one timed call into a layer. Start and End are nanoseconds since
// the tracer's epoch. Parent is the enclosing span (-1 for a root): an
// index into the cell's buffer until flush renumbers it, with ID, into
// the tracer's.
type span struct {
	Name       string `json:"name"`
	Cell       int    `json:"cell"`
	ID         int    `json:"id"`
	Parent     int    `json:"parent"`
	Start, End int64  `json:"-"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer collects the spans of one sweep (or of one set-up pass).
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// cell opens the span buffer for cell index i (-1 for set-up). Nil-safe.
func (t *tracer) cell(i int) *cellTrace {
	if t == nil {
		return nil
	}
	return &cellTrace{t: t, cell: i, root: -1}
}

// cellTrace buffers one cell's spans so that concurrent cells never share
// a lock on the hot path.
type cellTrace struct {
	t    *tracer
	cell int
	// root is the parent of spans opened with open: the cell's own span,
	// or -1 during set-up.
	root  int
	spans []span
}

// begin opens a span under parent and returns its index in the cell.
func (c *cellTrace) begin(name string, parent int) int {
	if c == nil {
		return -1
	}
	c.spans = append(c.spans, span{Name: name, Cell: c.cell, Parent: parent, Start: c.t.now()})
	return len(c.spans) - 1
}

// open opens a span under the cell's root.
func (c *cellTrace) open(name string) int {
	if c == nil {
		return -1
	}
	return c.begin(name, c.root)
}

// end closes the span opened by begin.
func (c *cellTrace) end(i int) {
	if c == nil {
		return
	}
	c.spans[i].End = c.t.now()
}

// flush hands the cell's spans to the tracer, renumbering them globally.
func (c *cellTrace) flush() {
	if c == nil {
		return
	}
	c.t.mu.Lock()
	base := len(c.t.spans)
	for i, s := range c.spans {
		s.ID = base + i
		if s.Parent >= 0 {
			s.Parent += base
		}
		c.t.spans = append(c.t.spans, s)
	}
	c.t.mu.Unlock()
	c.spans = nil
}

// timed runs f inside a span named name under the cell's root. Nil-safe.
func timed[T any](c *cellTrace, name string, f func() T) T {
	i := c.open(name)
	v := f()
	c.end(i)
	return v
}

// timed2 is timed for calls that also return an error.
func timed2[T any](c *cellTrace, name string, f func() (T, error)) (T, error) {
	i := c.open(name)
	v, err := f()
	c.end(i)
	return v, err
}

// planTimer is the Plan-timing Strategy wrapper: it records one span per
// Plan call under the engine span that drives it and counts the calls and
// the moves the heuristic proposed. Name is forwarded, so result tables
// and the fault engine's plan naming are unchanged.
type planTimer struct {
	inner  sim.Strategy
	ct     *cellTrace
	span   string
	parent int
	counts *plans
}

func (p *planTimer) Name() string { return p.inner.Name() }

func (p *planTimer) Plan(st *sim.State) []core.Move {
	i := p.ct.begin(p.span, p.parent)
	mv := p.inner.Plan(st)
	p.ct.end(i)
	p.counts.calls++
	p.counts.proposed += len(mv)
	return mv
}

// failingPlanTimer is the planTimer for an inner strategy that implements
// sim.Failer. Both engines type-assert sim.Failer on the strategy they run
// to explain a stall, so the wrapper must expose Err exactly when the
// wrapped strategy does.
type failingPlanTimer struct{ *planTimer }

func (p failingPlanTimer) Err() error { return p.inner.(sim.Failer).Err() }

// timePlans wraps a factory so every strategy it builds reports its Plan
// calls to ct, under the span index *parent holds when the strategy is
// built, and adds them to counts.
func timePlans(f sim.Factory, ct *cellTrace, heuristic string, parent *int, counts *plans) sim.Factory {
	return sim.WrapStrategy(f, func(_ *core.Instance, s sim.Strategy) (sim.Strategy, error) {
		t := &planTimer{inner: s, ct: ct, span: "heuristics." + heuristic + ".plan", parent: *parent, counts: counts}
		if _, ok := s.(sim.Failer); ok {
			return failingPlanTimer{t}, nil
		}
		return t, nil
	})
}

// writeSpans writes every span of one sweep as one JSON line to path, with
// times in nanoseconds since the sweep began.
func writeSpans(path string, t *tracer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		line := struct {
			span
			StartNS int64 `json:"start_ns"`
			EndNS   int64 `json:"end_ns"`
		}{s, s.Start, s.End}
		if err := enc.Encode(line); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
