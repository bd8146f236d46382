package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the call. Spans of one operation share Trace; Parent is the span that
// made the call (0 for an operation's root).
type span struct {
	Trace  uint64 `json:"trace_id"`
	ID     uint64 `json:"span_id"`
	Parent uint64 `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// aggSpan stands in for many per-call spans too short and too numerous to
// keep one by one (one per Interact): their count and summed duration,
// under the span that made the calls.
type aggSpan struct {
	Name    string `json:"name"`
	Parent  string `json:"parent"`
	Count   int64  `json:"count"`
	TotalNS int64  `json:"total_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per span.
type tracer struct {
	epoch  time.Time
	ids    atomic.Uint64
	traces atomic.Uint64

	mu    sync.Mutex
	spans []span
	aggs  []aggSpan
}

func newTracer() *tracer { return &tracer{epoch: now()} }

// newTrace returns a fresh trace identifier for one operation or probe.
func (t *tracer) newTrace() uint64 {
	if t == nil {
		return 0
	}
	return t.traces.Add(1)
}

func (t *tracer) begin(trace, parent uint64, name string) span {
	if t == nil {
		return span{}
	}
	return span{Trace: trace, ID: t.ids.Add(1), Parent: parent, Name: name, Start: int64(now().Sub(t.epoch))}
}

func (t *tracer) end(s span) {
	if t == nil {
		return
	}
	s.End = int64(now().Sub(t.epoch))
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) aggregate(a aggSpan) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.aggs = append(t.aggs, a)
	t.mu.Unlock()
}

// traceCtx is the position in the span tree that a layer call hangs from.
type traceCtx struct {
	tr     *tracer
	trace  uint64
	parent uint64
}

// call runs fn inside a span named name under c.
func (c traceCtx) call(name string, fn func()) {
	s := c.tr.begin(c.trace, c.parent, name)
	fn()
	c.tr.end(s)
}

// selfTime is the total self time of one span name.
type selfTime struct {
	Name  string  `json:"name"`
	Count int     `json:"count"`
	MS    float64 `json:"ms"`
}

// selfTimes reports, per span name, the summed duration of its spans minus
// the part of each that its children cover. Concurrent children are merged
// into one covered interval set, so overlap is not subtracted twice.
func selfTimes(spans []span) []selfTime {
	children := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	idx := make(map[string]int)
	var out []selfTime
	for _, s := range spans {
		self := s.End - s.Start - covered(s, children[s.ID])
		i, ok := idx[s.Name]
		if !ok {
			i = len(out)
			idx[s.Name] = i
			out = append(out, selfTime{Name: s.Name})
		}
		out[i].Count++
		out[i].MS += float64(self) / 1e6
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// covered returns how much of parent's interval the union of kids covers.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		switch {
		case i == 0:
			curLo, curHi = v[0], v[1]
		case v[0] > curHi:
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		case v[1] > curHi:
			curHi = v[1]
		}
	}
	if len(iv) > 0 {
		total += curHi - curLo
	}
	return total
}
