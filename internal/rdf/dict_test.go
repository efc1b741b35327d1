package rdf

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
)

func TestDictInstall(t *testing.T) {
	d := NewDict()
	for i, tm := range trickyTerms {
		if err := d.Install(TermID(i+1), tm); err != nil {
			t.Fatal(err)
		}
	}
	// Replaying an overlap is an idempotent no-op.
	for i, tm := range trickyTerms {
		if err := d.Install(TermID(i+1), tm); err != nil {
			t.Errorf("re-install of id %d: %v", i+1, err)
		}
	}
	if d.Len() != len(trickyTerms) {
		t.Fatalf("Len = %d, want %d", d.Len(), len(trickyTerms))
	}
	next := TermID(len(trickyTerms) + 1)
	for _, tc := range []struct {
		id TermID
		t  Term
	}{
		{NoTerm, NewIRI("z")},                     // reserved
		{1, NewLiteral("")},                       // id 1 holds the IRI ""
		{next + 1, NewIRI("z")},                   // gap
		{next, Term{Kind: Blank + 1, Value: "z"}}, // bad kind
	} {
		if err := d.Install(tc.id, tc.t); err == nil {
			t.Errorf("Install(%d, %#v) = nil, want an error", tc.id, tc.t)
		}
	}
	if d.Len() != len(trickyTerms) {
		t.Errorf("failed installs changed Len to %d", d.Len())
	}
	if id := d.Encode(NewIRI("z")); id != next {
		t.Errorf("Encode after install = %d, want next free id %d", id, next)
	}
}

func TestDictEncodePanicsOnBadKind(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Encode of an unknown term kind did not panic")
		}
	}()
	NewDict().Encode(Term{Kind: Blank + 1, Value: "z"})
}

func TestDictTermsAfter(t *testing.T) {
	d := NewDict()
	for _, tm := range trickyTerms {
		d.Encode(tm)
	}
	if got := d.TermsAfter(0); !reflect.DeepEqual(got, trickyTerms) {
		t.Errorf("TermsAfter(0) = %v, want %v", got, trickyTerms)
	}
	if got := d.TermsAfter(3); !reflect.DeepEqual(got, trickyTerms[3:]) {
		t.Errorf("TermsAfter(3) = %v, want %v", got, trickyTerms[3:])
	}
	if got := d.TermsAfter(TermID(d.Len())); got != nil {
		t.Errorf("TermsAfter(Len) = %v, want nil", got)
	}
	// The result is a copy: a later Encode does not show through.
	got := d.TermsAfter(0)
	d.EncodeIRI("later")
	if len(got) != len(trickyTerms) {
		t.Errorf("TermsAfter result grew to %d", len(got))
	}
	d2 := NewDict()
	for i, tm := range d.TermsAfter(0) {
		if err := d2.Install(TermID(i+1), tm); err != nil {
			t.Fatal(err)
		}
	}
	for id := TermID(1); int(id) <= d.Len(); id++ {
		if d.String(id) != d2.String(id) {
			t.Errorf("replayed id %d = %q, want %q", id, d2.String(id), d.String(id))
		}
	}
}

// TestDictConcurrentDecode has writers encode fresh terms while
// readers decode every id published so far; under -race it checks that
// the lock-free read path is properly synchronized with table growth.
func TestDictConcurrentDecode(t *testing.T) {
	const writers, perWriter, readers = 2, 3000, 2
	d := NewDict()
	term := func(w, i int) Term {
		v := fmt.Sprintf("w%d-%d", w, i)
		switch i % 3 {
		case 0:
			return NewIRI(v)
		case 1:
			return NewLiteral(v)
		}
		return NewBlank(v)
	}
	var wg sync.WaitGroup
	done := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				d.Encode(term(w, i))
			}
		}(w)
	}
	errs := make(chan error, readers)
	var rg sync.WaitGroup
	for r := 0; r < readers; r++ {
		rg.Add(1)
		go func() {
			defer rg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				n := TermID(d.Len())
				for id := TermID(1); id <= n; id++ {
					s, tm := d.String(id), d.Term(id)
					if s != tm.String() || len(tm.Value) < 3 || tm.Value[0] != 'w' {
						errs <- fmt.Errorf("id %d: String %q, Term %#v", id, s, tm)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(done)
	rg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if d.Len() != writers*perWriter {
		t.Fatalf("Len = %d, want %d", d.Len(), writers*perWriter)
	}
	for w := 0; w < writers; w++ {
		for i := 0; i < perWriter; i++ {
			tm := term(w, i)
			id, ok := d.Lookup(tm)
			if !ok || d.Term(id) != tm {
				t.Fatalf("%v: id %d,%v decodes to %v", tm, id, ok, d.Term(id))
			}
		}
	}
}
