package rdf

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// TermID is a dense integer identifier for a term, assigned by a Dict.
// ID 0 is never assigned; it is reserved as "no term".
type TermID uint32

// NoTerm is the zero TermID, never assigned to a real term.
const NoTerm TermID = 0

// Dict is a bidirectional dictionary between terms and TermIDs.
// It is safe for concurrent use. The zero value is not usable;
// construct with NewDict.
//
// Each term is stored once, as its N-Triples rendering (<iri>, "lit",
// _:b): that string is both its ids key (the kinds stay disjoint, as
// their first bytes differ) and its decoded form. Decoding takes no
// lock: tab is an append-only table, (*tab)[id-1] for id, whose first
// n entries are published; growth replaces the table, so a reader's
// snapshot stays valid.
type Dict struct {
	mu  sync.RWMutex // guards ids and writes to tab
	ids map[string]TermID
	tab atomic.Pointer[[]string]
	n   atomic.Uint32
}

// NewDict returns an empty dictionary.
func NewDict() *Dict {
	d := &Dict{ids: make(map[string]TermID)}
	d.tab.Store(new([]string))
	return d
}

// Encode returns the ID for t, assigning a fresh one if t is new.
func (d *Dict) Encode(t Term) TermID {
	k := t.String()
	d.mu.RLock()
	id, ok := d.ids[k]
	d.mu.RUnlock()
	if ok {
		return id
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if id, ok = d.ids[k]; ok {
		return id
	}
	if t.Kind > Blank {
		panic(fmt.Sprintf("rdf: encode of a term of kind %v", t.Kind))
	}
	return d.add(k)
}

// add appends the rendered term s under the write lock. The entry (and
// on growth the new table) is written before the count publishes it.
func (d *Dict) add(s string) TermID {
	tab, n := *d.tab.Load(), d.n.Load()
	if int(n) == len(tab) {
		tab = append(tab, make([]string, n+64)...)
		d.tab.Store(&tab)
	}
	tab[n] = s
	d.ids[s] = TermID(n + 1)
	d.n.Store(n + 1)
	return TermID(n + 1)
}

// Lookup returns the ID for t if it has been encoded.
func (d *Dict) Lookup(t Term) (TermID, bool) {
	k := t.String()
	d.mu.RLock()
	defer d.mu.RUnlock()
	id, ok := d.ids[k]
	return id, ok
}

// String returns the N-Triples rendering of the term for id, without
// locking or allocating. It panics if id was never assigned.
func (d *Dict) String(id TermID) string {
	if id == NoTerm || uint32(id) > d.n.Load() {
		panic(fmt.Sprintf("rdf: dictionary has no term with id %d", id))
	}
	return (*d.tab.Load())[id-1]
}

// Term returns the term for id, its Value a substring of the stored
// rendering. It panics if id was never assigned.
func (d *Dict) Term(id TermID) Term { return parseRendered(d.String(id)) }

// parseRendered inverts Term.String for the three kinds.
func parseRendered(s string) Term {
	switch s[0] {
	case '<':
		return NewIRI(s[1 : len(s)-1])
	case '"':
		return NewLiteral(s[1 : len(s)-1])
	}
	return NewBlank(s[2:])
}

// Len reports the number of distinct terms encoded.
func (d *Dict) Len() int { return int(d.n.Load()) }

// Install assigns id to t during WAL replay. IDs must arrive densely:
// id is either already assigned (then t must match what it maps to —
// the call is an idempotent no-op, as when a checkpoint and the first
// records after it overlap) or exactly the next free ID. Anything else
// means the log disagrees with the dictionary being rebuilt.
func (d *Dict) Install(id TermID, t Term) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := TermID(d.n.Load())
	switch {
	case id == NoTerm || t.Kind > Blank:
		return fmt.Errorf("rdf: install of reserved id or bad term (%d, %v)", id, t)
	case id <= n:
		if got := d.Term(id); got != t {
			return fmt.Errorf("rdf: install id %d: already %v, log says %v", id, got, t)
		}
		return nil
	case id == n+1:
		d.add(t.String())
		return nil
	default:
		return fmt.Errorf("rdf: install id %d leaves a gap (next free is %d)", id, n+1)
	}
}

// TermsAfter returns the terms with IDs greater than after, in ID
// order (so TermsAfter(0) is the whole dictionary and the first
// returned term has ID after+1). The WAL logs exactly this slice with
// each batch so recovery can reproduce ID assignment.
func (d *Dict) TermsAfter(after TermID) []Term {
	n := TermID(d.n.Load())
	if after >= n {
		return nil
	}
	out := make([]Term, 0, n-after)
	for _, s := range (*d.tab.Load())[after:n] {
		out = append(out, parseRendered(s))
	}
	return out
}

// EncodeIRI is shorthand for Encode(NewIRI(v)).
func (d *Dict) EncodeIRI(v string) TermID { return d.Encode(NewIRI(v)) }

// EncodeLiteral is shorthand for Encode(NewLiteral(v)).
func (d *Dict) EncodeLiteral(v string) TermID { return d.Encode(NewLiteral(v)) }
