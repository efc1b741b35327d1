package main

import (
	"testing"
	"time"
)

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Req: 7, Name: "request", Start: 0, End: 100},
		{ID: 2, Parent: 1, Req: 7, Name: "exec", Start: 10, End: 60},
		{ID: 3, Parent: 1, Req: 7, Name: "decode", Start: 50, End: 80},
		{ID: 4, Parent: 2, Req: 7, Name: "inner", Start: 20, End: 30},
	}
	self := selfTimes(spans)
	for id, want := range map[int64]time.Duration{1: 30, 2: 40, 3: 30, 4: 10} {
		if self[id] != want {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], want)
		}
	}
	if err := checkSpans(spans); err != nil {
		t.Fatal(err)
	}
}

func TestCheckSpansRequiresSharedRequestID(t *testing.T) {
	tr := newTracer(time.Now(), 0)
	root := tr.request("request", "Q1")
	s := tr.begin("exec", root)
	tr.end(s)
	tr.end(root)
	root = tr.request("request", "Q2")
	tr.end(root)
	if err := checkSpans(tr.spans); err != nil {
		t.Fatalf("well-formed trace rejected: %v", err)
	}
	if tr.spans[1].Req != tr.spans[0].Req || tr.spans[2].Req == tr.spans[0].Req {
		t.Fatalf("request ids: %d %d %d", tr.spans[0].Req, tr.spans[1].Req, tr.spans[2].Req)
	}
	bad := append([]span(nil), tr.spans...)
	bad[1].Req = bad[2].Req
	if checkSpans(bad) == nil {
		t.Error("a child in another request than its parent was accepted")
	}
	bad = append([]span(nil), tr.spans...)
	bad[1].Parent = 0
	if checkSpans(bad) == nil {
		t.Error("a request with two roots was accepted")
	}
	var none *tracer
	none.end(none.begin("exec", none.request("request", "Q1")))
}
