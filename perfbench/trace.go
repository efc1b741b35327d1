package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the layer's own public function. Spans of one request share Req; a
// request's root span has Parent 0.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Query  string `json:"query,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps the spans of one client goroutine in memory. It is not
// safe for concurrent use; each goroutine owns one. A nil *tracer
// records nothing.
type tracer struct {
	epoch  time.Time
	client int64
	nreq   int64
	req    int64
	query  string
	spans  []span
}

func newTracer(epoch time.Time, client int) *tracer {
	return &tracer{epoch: epoch, client: int64(client) + 1}
}

// request opens a new request labelled with its query template and
// returns the index of its root span.
func (t *tracer) request(name, query string) int {
	if t == nil {
		return -1
	}
	t.nreq++
	t.req = t.client<<32 | t.nreq
	t.query = query
	return t.begin(name, -1)
}

// begin opens a span under the span at index parent (-1 for a root)
// and returns its index.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	s := span{
		ID:    t.client<<32 | int64(len(t.spans)+1),
		Req:   t.req,
		Name:  name,
		Query: t.query,
		Start: int64(time.Since(t.epoch)),
	}
	if parent >= 0 {
		s.Parent = t.spans[parent].ID
	}
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

// end closes the span at index i.
func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	t.spans[i].End = int64(time.Since(t.epoch))
}

// rename relabels the span at index i once the call's outcome is known
// (a plan-cache probe that ran the optimizer becomes "optimizer").
func (t *tracer) rename(i int, name string) {
	if t != nil {
		t.spans[i].Name = name
	}
}

// allSpans concatenates the spans of several tracers.
func allSpans(ts ...*tracer) []span {
	var out []span
	for _, t := range ts {
		if t != nil {
			out = append(out, t.spans...)
		}
	}
	return out
}

// checkSpans verifies the span forest: ids are unique, every parent
// exists and encloses its child, a child shares its parent's request
// id, and every request has exactly one root.
func checkSpans(spans []span) error {
	byID := make(map[int64]span, len(spans))
	roots := make(map[int64]int)
	for _, s := range spans {
		if _, dup := byID[s.ID]; dup {
			return fmt.Errorf("span id %d used twice", s.ID)
		}
		if s.End < s.Start {
			return fmt.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
		byID[s.ID] = s
		if s.Parent == 0 {
			roots[s.Req]++
		}
	}
	for _, s := range spans {
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		switch {
		case !ok:
			return fmt.Errorf("span %d (%s) has no parent %d", s.ID, s.Name, s.Parent)
		case p.Req != s.Req:
			return fmt.Errorf("span %d (%s) is in request %d but its parent is in %d", s.ID, s.Name, s.Req, p.Req)
		case s.Start < p.Start || s.End > p.End:
			return fmt.Errorf("span %d (%s) lies outside its parent %d", s.ID, s.Name, p.ID)
		}
	}
	for _, s := range spans {
		if roots[s.Req] != 1 {
			return fmt.Errorf("request %d has %d root spans", s.Req, roots[s.Req])
		}
	}
	return nil
}

// selfTimes returns each span's self time: its duration minus the part
// of it its children cover.
func selfTimes(spans []span) map[int64]time.Duration {
	kids := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(kids[s.ID])
	}
	return out
}

// covered is the length of the union of the spans' intervals.
func covered(ss []span) time.Duration {
	sort.Slice(ss, func(i, j int) bool { return ss[i].Start < ss[j].Start })
	var total, lo, hi int64
	for i, s := range ss {
		if i == 0 || s.Start > hi {
			total += hi - lo
			lo, hi = s.Start, s.End
		} else if s.End > hi {
			hi = s.End
		}
	}
	return time.Duration(total + hi - lo)
}

// writeSpans writes one JSON object per span to path.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
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
