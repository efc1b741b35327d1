package main

import (
	"errors"
	"fmt"
	"hash/maphash"
	"math/rand"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"cliquesquare/internal/lubm"
	"cliquesquare/internal/rdf"
	"cliquesquare/internal/sparql"
	"cliquesquare/internal/systems/csq"
)

// digest is an order-insensitive fingerprint of a result: its row
// count and the wrapping sum of one hash per row.
type digest struct {
	Rows int
	Sum  uint64
}

// rowSeed keys the row hashes; answers and references are compared
// within one process, so a per-process seed suffices.
var rowSeed = maphash.MakeSeed()

func digestRows(rows [][]string) digest {
	var h maphash.Hash
	h.SetSeed(rowSeed)
	d := digest{Rows: len(rows)}
	for _, row := range rows {
		h.Reset()
		for _, c := range row {
			h.WriteString(c)
			h.WriteByte(0)
		}
		d.Sum += h.Sum64()
	}
	return d
}

// refAnswer is what an answer to one query text over one data state
// must reproduce.
type refAnswer struct {
	dig digest
	sim time.Duration
}

// compare reports how a answer differs from its reference ref; found
// is false when no reference was computed for it.
func compare(a answer, ref refAnswer, found bool) error {
	switch {
	case !found:
		return errors.New("no reference answer")
	case a.dig != ref.dig:
		return fmt.Errorf("rows %d (hash %x), want %d (hash %x)", a.dig.Rows, a.dig.Sum, ref.dig.Rows, ref.dig.Sum)
	case a.sim != ref.sim:
		return fmt.Errorf("simulated time %v, want %v", a.sim, ref.sim)
	}
	return nil
}

// reference answers srcs over the LUBM dataset at univ universities
// minus the removed triples. It builds its own engine that runs the
// sequential runtime with the plan and result caches off, so the
// answers come from another path than the engines under test.
func reference(univ int, removed [][3]rdf.Term, srcs []string) (map[string]refAnswer, error) {
	g := lubm.Generate(lubm.DefaultConfig(univ))
	var del []rdf.Triple
	for _, t := range removed {
		s, ok1 := g.Dict.Lookup(t[0])
		p, ok2 := g.Dict.Lookup(t[1])
		o, ok3 := g.Dict.Lookup(t[2])
		if ok1 && ok2 && ok3 {
			del = append(del, rdf.Triple{S: s, P: p, O: o})
		}
	}
	g.RemoveBatch(del)
	cfg := csq.DefaultConfig()
	cfg.Sequential = true
	cfg.PlanCacheSize = -1
	e := csq.New(g, cfg)
	defer e.Close()
	ref := &layerDB{e: e, dict: g.Dict}

	out := make(map[string]refAnswer, len(srcs))
	var (
		mu       sync.Mutex
		firstErr error
		wg       sync.WaitGroup
		next     = make(chan string)
	)
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for src := range next {
				a, err := ref.query("", src, nil)
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = fmt.Errorf("reference: %w", err)
				}
				out[src] = refAnswer{dig: digestRows(a.rows), sim: a.sim}
				mu.Unlock()
			}
		}()
	}
	for _, src := range srcs {
		next <- src
	}
	close(next)
	wg.Wait()
	return out, firstErr
}

// templates are the 14 Appendix-A queries in SPARQL text.
type templates struct {
	names []string
	qs    []*sparql.Query
	srcs  []string
}

func lubmTemplates() templates {
	var t templates
	for _, q := range lubm.Queries() {
		t.names = append(t.names, q.Name)
		t.qs = append(t.qs, q)
		t.srcs = append(t.srcs, q.String())
	}
	return t
}

// instance renders template i with every University constant (an
// IRI http://www.UniversityN.edu or a literal "UniversityN") redrawn
// among the univ universities of the dataset.
func (t templates) instance(i int, rng *rand.Rand, univ int) string {
	q := *t.qs[i]
	q.Patterns = append([]sparql.TriplePattern(nil), q.Patterns...)
	redraw := func(pt *sparql.PatternTerm) {
		switch {
		case pt.IsVar:
		case pt.Term.Kind == rdf.IRI && strings.HasPrefix(pt.Term.Value, "http://www.University") && strings.HasSuffix(pt.Term.Value, ".edu"):
			pt.Term = rdf.NewIRI(lubm.UniversityIRI(rng.Intn(univ)))
		case pt.Term.Kind == rdf.Literal && strings.HasPrefix(pt.Term.Value, "University"):
			pt.Term = rdf.NewLiteral("University" + strconv.Itoa(rng.Intn(univ)))
		}
	}
	for k := range q.Patterns {
		redraw(&q.Patterns[k].S)
		redraw(&q.Patterns[k].O)
	}
	return q.String()
}

// writerPlan is the fixed write schedule: the seed picks disjoint
// slices of the loaded triples and writer w owns perWriter of them. Its
// i-th batch deletes slice i (cycling) and re-inserts slice i-1, so
// every batch after the first changes two slices and exactly one of
// the writer's slices is missing after it.
type writerPlan struct {
	slices    [][][3]rdf.Term
	perWriter int
}

func newWriterPlan(g *rdf.Graph, seed int64, writers, perWriter, size int) writerPlan {
	ts := g.Triples()
	perm := rand.New(rand.NewSource(seed)).Perm(len(ts))
	p := writerPlan{slices: make([][][3]rdf.Term, writers*perWriter), perWriter: perWriter}
	for k := range p.slices {
		for _, i := range perm[k*size : (k+1)*size] {
			t := ts[i]
			p.slices[k] = append(p.slices[k], [3]rdf.Term{g.Dict.Term(t.S), g.Dict.Term(t.P), g.Dict.Term(t.O)})
		}
	}
	return p
}

func (p writerPlan) slice(w, i int) int { return w*p.perWriter + i%p.perWriter }

func (p writerPlan) batch(w, i int) batch {
	b := batch{del: p.slices[p.slice(w, i)]}
	if i > 0 {
		b.ins = p.slices[p.slice(w, i-1)]
	}
	return b
}

// deleted lists the slices missing once writer w has committed done[w]
// batches.
func (p writerPlan) deleted(done []int) []int {
	var out []int
	for w, n := range done {
		if n > 0 {
			out = append(out, p.slice(w, n-1))
		}
	}
	sort.Ints(out)
	return out
}

// removed is the union of the listed slices.
func (p writerPlan) removed(slices []int) [][3]rdf.Term {
	var out [][3]rdf.Term
	for _, k := range slices {
		out = append(out, p.slices[k]...)
	}
	return out
}

// stateKey names a data state by its deleted slices.
func stateKey(slices []int) string { return fmt.Sprint(slices) }
