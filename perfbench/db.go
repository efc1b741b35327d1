package main

import (
	"time"

	"cliquesquare"
	"cliquesquare/internal/plancache"
	"cliquesquare/internal/rdf"
	"cliquesquare/internal/sparql"
	"cliquesquare/internal/systems/csq"
	"cliquesquare/internal/wal"
)

// answer is one query result as the benchmark receives it. rows is
// dropped once digested; counts are filled on the layered path only.
type answer struct {
	rows    [][]string
	dig     digest
	sim     time.Duration
	version uint64
	cached  bool
	plans   int
	counts  counts
}

// counts are the exact work counts of one execution.
type counts struct {
	Jobs, Shuffled, ShuffledCells, OutputRows, Cells int
}

func (c *counts) add(o counts) {
	c.Jobs += o.Jobs
	c.Shuffled += o.Shuffled
	c.ShuffledCells += o.ShuffledCells
	c.OutputRows += o.OutputRows
	c.Cells += o.Cells
}

// batch is one atomic write: deletes, then inserts.
type batch struct {
	del, ins [][3]rdf.Term
}

// engineStats gathers the engine's own counters.
type engineStats struct {
	plan, res plancache.Stats
	upd       csq.UpdateStats
	dur       csq.DurabilityStats
}

// spec is the engine configuration a workload asks for; everything
// else stays at the facade's defaults.
type spec struct {
	planCache int
	resCache  int64
	walDir    string // "" for an in-memory engine
}

// db is the engine under test as one client drives it: the public
// facade on untraced runs, and on traced runs the layers' own functions
// in the order the facade calls them, with a span around each.
type db interface {
	query(label, src string, t *tracer) (answer, error)
	apply(b batch, t *tracer) (csq.BatchResult, error)
	stats() engineStats
	dataVersion() uint64
	close() error
}

// openDB builds an engine over g (NewEngine, or NewDurable when
// s.walDir is set).
func openDB(layered bool, g *rdf.Graph, s spec) (db, error) {
	if layered {
		var e *csq.Engine
		var err error
		if s.walDir != "" {
			e, err = csq.NewDurable(g, s.config(), wal.Options{Dir: s.walDir})
		} else {
			e = csq.New(g, s.config())
		}
		if err != nil {
			return nil, err
		}
		return &layerDB{e: e, dict: g.Dict}, nil
	}
	e, err := cliquesquare.NewEngine(g, s.options())
	if err != nil {
		return nil, err
	}
	return facadeDB{e}, nil
}

// reopenDB recovers a durable engine from its write-ahead log.
func reopenDB(layered bool, s spec) (db, error) {
	if layered {
		e, err := csq.OpenDurable(s.config(), wal.Options{Dir: s.walDir})
		if err != nil {
			return nil, err
		}
		return &layerDB{e: e, dict: e.Graph().Dict}, nil
	}
	e, err := cliquesquare.Open(s.options())
	if err != nil {
		return nil, err
	}
	return facadeDB{e}, nil
}

func (s spec) options() cliquesquare.Options {
	o := cliquesquare.Options{PlanCacheSize: s.planCache, ResultCacheBytes: s.resCache}
	if s.walDir != "" {
		o.Durable = &cliquesquare.DurableOptions{Dir: s.walDir}
	}
	return o
}

// config mirrors what the facade makes of options().
func (s spec) config() csq.Config {
	cfg := csq.DefaultConfig()
	cfg.PlanCacheSize = s.planCache
	cfg.ResultCacheBytes = s.resCache
	return cfg
}

// facadeDB drives the public cliquesquare API.
type facadeDB struct{ e *cliquesquare.Engine }

func (f facadeDB) query(_, src string, _ *tracer) (answer, error) {
	p, err := f.e.Prepare(src)
	if err != nil {
		return answer{}, err
	}
	r, err := p.Run()
	if err != nil {
		return answer{}, err
	}
	return answer{rows: r.Rows, sim: r.SimulatedTime, version: r.DataVersion, cached: r.PlanCached, plans: r.PlansExplored}, nil
}

func (f facadeDB) apply(b batch, _ *tracer) (csq.BatchResult, error) {
	fb := new(cliquesquare.Batch)
	for _, t := range b.del {
		fb.Delete(t[0], t[1], t[2])
	}
	for _, t := range b.ins {
		fb.Insert(t[0], t[1], t[2])
	}
	return f.e.ApplyBatch(fb)
}

func (f facadeDB) stats() engineStats {
	return engineStats{plan: f.e.CacheStats(), res: f.e.ResultCacheStats(), upd: f.e.UpdateStats(), dur: f.e.DurabilityStats()}
}

func (f facadeDB) dataVersion() uint64 { return f.e.DataVersion() }
func (f facadeDB) close() error        { return f.e.Close() }

// layerDB drives the layers directly: sparql.Parse, sparql.Canonicalize,
// csq.Engine.PrepareCached, csq.Engine.ExecutePrepared, rdf.Dict
// decoding and csq.Engine.ApplyBatch.
type layerDB struct {
	e    *csq.Engine
	dict *rdf.Dict
}

func (l *layerDB) query(label, src string, t *tracer) (answer, error) {
	root := t.request("request", label)
	defer t.end(root)
	s := t.begin("sparql.parse", root)
	q, err := sparql.Parse(src)
	t.end(s)
	if err != nil {
		return answer{}, err
	}
	// PrepareCached canonicalizes again internally; this call is here
	// to time the layer on its own.
	s = t.begin("sparql.canon", root)
	sparql.Canonicalize(q)
	t.end(s)
	revals := l.e.UpdateStats().Revalidations
	s = t.begin("plancache", root)
	p, hit, err := l.e.PrepareCached(q)
	t.end(s)
	if err != nil {
		return answer{}, err
	}
	switch {
	case !hit:
		t.rename(s, "optimizer")
	case l.e.UpdateStats().Revalidations != revals:
		t.rename(s, "plan.revalidate")
	}
	s = t.begin("exec", root)
	r, err := l.e.ExecutePrepared(p)
	t.end(s)
	if err != nil {
		return answer{}, err
	}
	s = t.begin("decode", root)
	rows := make([][]string, len(r.Rows))
	cells := 0
	for _, row := range r.Rows {
		cells += len(row)
	}
	slab := make([]string, cells)
	for ri, row := range r.Rows {
		dec := slab[:len(row):len(row)]
		slab = slab[len(row):]
		for i, id := range row {
			dec[i] = l.dict.Term(id).String()
		}
		rows[ri] = dec
	}
	t.end(s)
	a := answer{
		rows:    rows,
		sim:     time.Duration(r.Time) * time.Microsecond,
		version: r.DataVersion,
		cached:  hit,
		plans:   p.PlansExplored,
		counts:  counts{Jobs: len(r.Jobs), OutputRows: len(r.Rows), Cells: cells},
	}
	for _, j := range r.Jobs {
		a.counts.Shuffled += j.Shuffled
		a.counts.ShuffledCells += j.ShuffledCells
	}
	return a, nil
}

func (l *layerDB) apply(b batch, t *tracer) (csq.BatchResult, error) {
	root := t.request("write", "")
	defer t.end(root)
	var ins, del []rdf.Triple
	for _, tr := range b.ins {
		ins = append(ins, rdf.Triple{S: l.dict.Encode(tr[0]), P: l.dict.Encode(tr[1]), O: l.dict.Encode(tr[2])})
	}
	for _, tr := range b.del {
		s, ok1 := l.dict.Lookup(tr[0])
		p, ok2 := l.dict.Lookup(tr[1])
		o, ok3 := l.dict.Lookup(tr[2])
		if ok1 && ok2 && ok3 {
			del = append(del, rdf.Triple{S: s, P: p, O: o})
		}
	}
	s := t.begin("commit", root)
	defer t.end(s)
	return l.e.ApplyBatch(ins, del)
}

func (l *layerDB) stats() engineStats {
	return engineStats{plan: l.e.CacheStats(), res: l.e.ResultCacheStats(), upd: l.e.UpdateStats(), dur: l.e.DurabilityStats()}
}

func (l *layerDB) dataVersion() uint64 { return l.e.DataVersion() }
func (l *layerDB) close() error        { return l.e.Close() }
