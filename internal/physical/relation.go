package physical

import (
	"sort"

	"cliquesquare/internal/mapreduce"
)

// relation is a local (per-node or per-group) set of rows under a
// column schema of variable names.
type relation struct {
	schema []string
	rows   []mapreduce.Row
}

// col returns the column index of attribute a, or -1.
func (r *relation) col(a string) int {
	for i, s := range r.schema {
		if s == a {
			return i
		}
	}
	return -1
}

// appendCols appends the column indexes of attrs to buf: the hoisted
// form of per-row col() scans — resolved once per relation, then used
// for every row.
func (r *relation) appendCols(buf []int, attrs []string) []int {
	for _, a := range attrs {
		buf = append(buf, r.col(a))
	}
	return buf
}

// joinCounts is the work accounting a join reports back to its caller:
// tuples processed (inputs) and produced (outputs).
type joinCounts struct {
	in, out int
}

// naryJoinInto computes the n-ary equality join of children on
// joinAttrs, additionally enforcing equality on every attribute shared
// by two or more children (the folded residual selection), and appends
// the output rows — written directly in attrs column order, fusing the
// post-join projection — to dst. Every child but the first is indexed
// in an arena-owned open-addressing joinTable keyed directly on the
// rows' join cells (no per-row key string); the first child's rows
// stream through, probing each table with one precomputed hash. Output
// rows come from the arena's slab; the column sources and residual
// checks come from the arena's join-plan memo (they depend only on the
// child schemas and attrs, which repeat across the thousands of
// per-group joins of one reduce phase).
func (a *arena) naryJoinInto(dst []mapreduce.Row, children []relation, joinAttrs, attrs []string) ([]mapreduce.Row, joinCounts) {
	var counts joinCounts
	if len(children) == 0 {
		return dst, counts
	}
	jp := a.joinPlanFor(children, attrs)
	nc := len(children)
	a.grow(nc)

	// Resolve join-key columns once per child.
	for i := range children {
		a.colIdx[i] = children[i].appendCols(a.colIdx[i][:0], joinAttrs)
		counts.in += len(children[i].rows)
	}
	for i := 1; i < nc; i++ {
		a.tables[i].build(children[i].rows, a.colIdx[i])
	}

	srcChild, srcCol := jp.srcChild, jp.srcCol
	checks := jp.checks
	w := len(attrs)

	// Stream the first child: every row whose key is present in all
	// other children produces the consistent combinations of the
	// per-child groups.
	group := a.group[:nc]
	lists := a.lists[:nc]
	cols0 := a.colIdx[0]
	for _, row0 := range children[0].rows {
		h := hashRowKey(row0, cols0)
		ok := true
		for i := 1; i < nc; i++ {
			l := a.tables[i].probe(row0, cols0, h)
			if l == nil {
				ok = false
				break
			}
			lists[i] = l
		}
		if !ok {
			continue
		}
		group[0] = row0
		combine(lists, 1, group, func() {
			for _, c := range checks {
				if group[c.aChild][c.aCol] != group[c.bChild][c.bCol] {
					return
				}
			}
			row := a.newRow(w)
			for i := 0; i < w; i++ {
				row[i] = group[srcChild[i]][srcCol[i]]
			}
			dst = append(dst, row)
			counts.out++
		})
	}
	// Drop references to this join's inputs so pooled arenas don't pin
	// a finished query's intermediate rows until their next reuse.
	for i := 1; i < nc; i++ {
		a.tables[i].release()
	}
	for i := 0; i < nc; i++ {
		lists[i] = nil
		group[i] = nil
	}
	return dst, counts
}

// combine enumerates the cross product of lists[i:], filling group in
// place and invoking fn for each full combination (group[:i] is
// already set by the caller).
func combine(lists [][]mapreduce.Row, i int, group []mapreduce.Row, fn func()) {
	if i == len(lists) {
		fn()
		return
	}
	for _, row := range lists[i] {
		group[i] = row
		combine(lists, i+1, group, fn)
	}
}

// unionSchema returns the sorted union of the children's schemas.
func unionSchema(children []relation) []string {
	seen := make(map[string]bool)
	for i := range children {
		for _, a := range children[i].schema {
			seen[a] = true
		}
	}
	out := make([]string, 0, len(seen))
	for a := range seen {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

// columnSources picks, for every output column, the first child (and
// column within it) providing that attribute.
func columnSources(schema []string, children []relation) (srcChild, srcCol []int) {
	srcChild = make([]int, len(schema))
	srcCol = make([]int, len(schema))
	for i, a := range schema {
		for ci := range children {
			if c := children[ci].col(a); c >= 0 {
				srcChild[i], srcCol[i] = ci, c
				break
			}
		}
	}
	return srcChild, srcCol
}

type eqCheck struct {
	aChild, aCol, bChild, bCol int
}

// residualChecks builds the equality checks for attributes provided by
// several children: each extra provider must agree with the primary
// source.
func residualChecks(schema []string, children []relation, srcChild, srcCol []int) []eqCheck {
	var checks []eqCheck
	for i, a := range schema {
		for ci := range children {
			if ci == srcChild[i] {
				continue
			}
			if c := children[ci].col(a); c >= 0 {
				checks = append(checks, eqCheck{srcChild[i], srcCol[i], ci, c})
			}
		}
	}
	return checks
}

// project returns rows restricted to attrs (which must exist in r's
// schema), without deduplication. Output rows come from the arena's
// slab when one is provided.
func (r *relation) project(a *arena, attrs []string) relation {
	cols := make([]int, len(attrs))
	for i, at := range attrs {
		cols[i] = r.col(at)
	}
	out := relation{schema: append([]string(nil), attrs...)}
	for _, row := range r.rows {
		nr := a.newRow(len(cols))
		for i, c := range cols {
			nr[i] = row[c]
		}
		out.rows = append(out.rows, nr)
	}
	return out
}
