package rdf

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
)

// trickyTerms have values holding the other kinds' delimiters, or
// nothing at all.
var trickyTerms = []Term{
	NewIRI("http://example.org/a"), NewLiteral("hello"), NewBlank("b0"),
	NewIRI("hello"), // same value, different kind than the literal
	NewIRI(""), NewLiteral(""), NewBlank(""),
	NewIRI("a>b"), NewIRI(`"x"`), NewIRI("_:b"), NewIRI("<>"),
	NewLiteral(`say "hi"`), NewLiteral(">"), NewLiteral("_:b"), NewLiteral(`"`),
	NewBlank("_:x"), NewBlank(">"), NewBlank(`"`), NewBlank("<a>"),
}

func TestDictRoundTrip(t *testing.T) {
	d := NewDict()
	ids := make([]TermID, len(trickyTerms))
	for i, tm := range trickyTerms {
		ids[i] = d.Encode(tm)
	}
	for i, tm := range trickyTerms {
		if got := d.Term(ids[i]); got != tm {
			t.Errorf("Term(%d) = %#v, want %#v", ids[i], got, tm)
		}
		if got := d.String(ids[i]); got != tm.String() {
			t.Errorf("String(%d) = %q, want %q", ids[i], got, tm.String())
		}
		id, ok := d.Lookup(tm)
		if !ok || id != ids[i] {
			t.Errorf("Lookup(%#v) = %d,%v want %d,true", tm, id, ok, ids[i])
		}
	}
	if d.Len() != len(trickyTerms) {
		t.Errorf("Len = %d, want %d: distinct terms shared an id", d.Len(), len(trickyTerms))
	}
}

func TestDictKindsDisjoint(t *testing.T) {
	d := NewDict()
	a := d.Encode(NewIRI("x"))
	b := d.Encode(NewLiteral("x"))
	c := d.Encode(NewBlank("x"))
	if a == b || b == c || a == c {
		t.Errorf("IDs for iri/literal/blank %q collide: %d %d %d", "x", a, b, c)
	}
	if d.String(a) != "<x>" || d.String(b) != `"x"` || d.String(c) != "_:x" {
		t.Errorf("String = %q %q %q", d.String(a), d.String(b), d.String(c))
	}
}

func TestDictStableReencode(t *testing.T) {
	d := NewDict()
	f := func(s string) bool {
		return d.Encode(NewIRI(s)) == d.Encode(NewIRI(s))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDictLookupMissing(t *testing.T) {
	d := NewDict()
	if _, ok := d.Lookup(NewIRI("nope")); ok {
		t.Error("Lookup of unseen term reported ok")
	}
}

func TestDictTermPanicsOnBadID(t *testing.T) {
	d := NewDict()
	d.EncodeIRI("a")
	for _, id := range []TermID{NoTerm, 2} {
		for name, decode := range map[string]func(TermID){
			"Term":   func(id TermID) { d.Term(id) },
			"String": func(id TermID) { d.String(id) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s(%d) did not panic", name, id)
					}
				}()
				decode(id)
			}()
		}
	}
}

func TestGraphDeduplicates(t *testing.T) {
	g := NewGraph()
	tr := g.AddSPO("a", "p", "b")
	if !g.Contains(tr) {
		t.Fatal("graph does not contain inserted triple")
	}
	g.AddSPO("a", "p", "b")
	if g.Len() != 1 {
		t.Errorf("Len = %d after duplicate insert, want 1", g.Len())
	}
	if g.Add(tr) {
		t.Error("Add reported a duplicate as new")
	}
}

func TestTripleAt(t *testing.T) {
	tr := Triple{S: 1, P: 2, O: 3}
	for _, tc := range []struct {
		pos  Pos
		want TermID
	}{{SPos, 1}, {PPos, 2}, {OPos, 3}} {
		if got := tr.At(tc.pos); got != tc.want {
			t.Errorf("At(%v) = %d, want %d", tc.pos, got, tc.want)
		}
	}
}

func TestTermString(t *testing.T) {
	for _, tc := range []struct {
		term Term
		want string
	}{
		{NewIRI("http://x/a"), "<http://x/a>"},
		{NewLiteral("C1"), `"C1"`},
		{NewBlank("n1"), "_:n1"},
	} {
		if got := tc.term.String(); got != tc.want {
			t.Errorf("String(%v) = %q, want %q", tc.term, got, tc.want)
		}
	}
}

func TestReadNTriples(t *testing.T) {
	src := `
# a comment
<http://x/a> <http://x/p> <http://x/b> .
<http://x/a> <http://x/q> "lit with \"quote\" and \\slash" .
_:b0 <http://x/p> _:b1

<http://x/a> <http://x/p> <http://x/b> .
`
	g := NewGraph()
	n, err := ReadNTriples(g, strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Errorf("read %d triples, want 4", n)
	}
	if g.Len() != 3 {
		t.Errorf("graph holds %d distinct triples, want 3", g.Len())
	}
	// Check the escaped literal decoded correctly.
	id, ok := g.Dict.Lookup(NewLiteral(`lit with "quote" and \slash`))
	if !ok {
		t.Error("escaped literal not found in dictionary")
	}
	_ = id
}

func TestReadNTriplesErrors(t *testing.T) {
	for _, bad := range []string{
		`<a> <b>`,             // two terms
		`<a <b> <c> .`,        // unterminated IRI
		`<a> <b> "oops .`,     // unterminated literal
		`<a> <b> <c> extra .`, // garbage
		`what <b> <c> .`,      // unknown term
		`<a> <b> "x\`,         // dangling escape
		`<a> <b> <c> . <d> .`, // trailing terms
	} {
		g := NewGraph()
		if _, err := ReadNTriples(g, strings.NewReader(bad)); err == nil {
			t.Errorf("no error for %q", bad)
		}
	}
}

func TestNTriplesRoundTrip(t *testing.T) {
	g := NewGraph()
	g.AddSPO("http://x/a", "http://x/p", "http://x/b")
	g.AddSPOLit("http://x/a", "http://x/name", `say "hi" \ bye`)
	g.AddTerms(NewBlank("n0"), NewIRI("http://x/p"), NewBlank("n1"))

	var buf bytes.Buffer
	if err := WriteNTriples(g, &buf); err != nil {
		t.Fatal(err)
	}
	g2 := NewGraph()
	if _, err := ReadNTriples(g2, &buf); err != nil {
		t.Fatal(err)
	}
	if g2.Len() != g.Len() {
		t.Fatalf("round trip: %d triples, want %d", g2.Len(), g.Len())
	}
	for _, tr := range g.Triples() {
		s, p, o := g.Dict.Term(tr.S), g.Dict.Term(tr.P), g.Dict.Term(tr.O)
		sid, ok1 := g2.Dict.Lookup(s)
		pid, ok2 := g2.Dict.Lookup(p)
		oid, ok3 := g2.Dict.Lookup(o)
		if !ok1 || !ok2 || !ok3 || !g2.Contains(Triple{sid, pid, oid}) {
			t.Errorf("triple %v %v %v lost in round trip", s, p, o)
		}
	}
}

func TestPosString(t *testing.T) {
	if SPos.String() != "s" || PPos.String() != "p" || OPos.String() != "o" {
		t.Error("Pos.String mismatch")
	}
}
