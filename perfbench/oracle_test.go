package main

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"cliquesquare/internal/rdf"
)

func TestDigestIgnoresRowOrder(t *testing.T) {
	a := digestRows([][]string{{"<a>", "<b>"}, {"<c>", `"d"`}})
	b := digestRows([][]string{{"<c>", `"d"`}, {"<a>", "<b>"}})
	if a != b {
		t.Fatalf("same rows in another order digest differently: %v vs %v", a, b)
	}
	for _, rows := range [][][]string{
		{{"<a>", "<b>"}},                          // row missing
		{{"<a>", "<b>"}, {"<c>", `"e"`}},          // cell changed
		{{"<a>", "<b>"}, {"<c>", `"d"`}, {"<a>"}}, // row added
		{{"<a><b>"}, {"<c>", `"d"`}},              // cells merged
	} {
		if digestRows(rows) == a {
			t.Errorf("digest does not tell %v from the original", rows)
		}
	}
}

func TestCompareAgainstReference(t *testing.T) {
	rows := [][]string{{"<a>"}, {"<b>"}}
	ref := refAnswer{dig: digestRows(rows), sim: 5 * time.Second}
	ok := answer{dig: digestRows([][]string{{"<b>"}, {"<a>"}}), sim: 5 * time.Second}
	if err := compare(ok, ref, true); err != nil {
		t.Fatalf("matching answer rejected: %v", err)
	}
	for _, c := range []struct {
		a     answer
		found bool
		want  string
	}{
		{answer{dig: digestRows(rows[:1]), sim: ref.sim}, true, "rows 1"},
		{answer{dig: digest{Rows: 2, Sum: ref.dig.Sum + 1}, sim: ref.sim}, true, "hash"},
		{answer{dig: ref.dig, sim: ref.sim + time.Microsecond}, true, "simulated time"},
		{ok, false, "no reference"},
	} {
		err := compare(c.a, ref, c.found)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("compare(%+v) = %v, want an error mentioning %q", c.a, err, c.want)
		}
	}
}

func TestWriterPlanStates(t *testing.T) {
	p := writerPlan{slices: make([][][3]rdf.Term, 8), perWriter: 4}
	for k := range p.slices {
		p.slices[k] = [][3]rdf.Term{{rdf.NewIRI(fmt.Sprint(k))}}
	}
	// Writer 1 owns slices 4..7: its batch 0 only deletes slice 4, its
	// batch 1 deletes slice 5 and restores slice 4, and batch 4 wraps.
	for _, c := range []struct{ w, i, del, ins int }{
		{1, 0, 4, -1}, {1, 1, 5, 4}, {1, 4, 4, 7}, {0, 9, 1, 0},
	} {
		b := p.batch(c.w, c.i)
		if b.del[0][0].Value != fmt.Sprint(c.del) {
			t.Errorf("writer %d batch %d deletes slice %s, want %d", c.w, c.i, b.del[0][0].Value, c.del)
		}
		if c.ins < 0 && b.ins != nil || c.ins >= 0 && (b.ins == nil || b.ins[0][0].Value != fmt.Sprint(c.ins)) {
			t.Errorf("writer %d batch %d inserts %v, want slice %d", c.w, c.i, b.ins, c.ins)
		}
	}
	for _, c := range []struct {
		done []int
		want string
	}{
		{[]int{0, 0}, "[]"},
		{[]int{1, 0}, "[0]"},
		{[]int{6, 3}, "[1 6]"},
	} {
		if got := stateKey(p.deleted(c.done)); got != c.want {
			t.Errorf("deleted after %v = %s, want %s", c.done, got, c.want)
		}
	}
}
