package physical

import (
	"slices"

	"cliquesquare/internal/mapreduce"
	"cliquesquare/internal/rdf"
)

// parallelSortMin is the result size below which the final
// dedupe+sort runs single-threaded: chunking and merging only pay for
// themselves on large result sets.
const parallelSortMin = 4096

// flatRows is a row set copied into one fixed-width slab: row i is
// cells[i*w : i*w+w]. Rows are addressed by int32 index, and ordered
// lexicographically by cell — the canonical result order, total on
// distinct rows, so any algorithm producing the sorted distinct set
// yields byte-identical output.
type flatRows struct {
	cells []rdf.TermID
	w     int
}

func (f flatRows) row(i int32) []rdf.TermID {
	return f.cells[int(i)*f.w : int(i)*f.w+f.w]
}

// compareFrom compares rows a and b lane by lane from lane d.
func (f flatRows) compareFrom(a, b int32, d int) int {
	return slices.Compare(f.row(a)[d:], f.row(b)[d:])
}

// sort orders perm by the rows it indexes, from lane d on, with a
// three-way radix quicksort (Bentley–Sedgewick multikey quicksort, as
// mapreduce's record sort): rows with equal lane-d values are
// partitioned together and recurse one lane deeper, so shared prefixes
// are compared once per partition, not once per pair.
func (f flatRows) sort(perm []int32, d int) {
	for len(perm) > 1 && d < f.w {
		if len(perm) <= 16 {
			for i := 1; i < len(perm); i++ {
				for j := i; j > 0 && f.compareFrom(perm[j], perm[j-1], d) < 0; j-- {
					perm[j], perm[j-1] = perm[j-1], perm[j]
				}
			}
			return
		}
		a, b, c := f.row(perm[0])[d], f.row(perm[len(perm)/2])[d], f.row(perm[len(perm)-1])[d]
		pivot := max(min(a, b), min(max(a, b), c)) // median of three
		lt, gt := 0, len(perm)
		for i := 0; i < gt; {
			switch v := f.row(perm[i])[d]; {
			case v < pivot:
				perm[lt], perm[i] = perm[i], perm[lt]
				lt++
				i++
			case v > pivot:
				gt--
				perm[i], perm[gt] = perm[gt], perm[i]
			default:
				i++
			}
		}
		f.sort(perm[:lt], d)
		f.sort(perm[lt:gt], d+1)
		perm = perm[gt:]
	}
}

// dedupeSortRows produces the canonical result set of w-wide rows:
// distinct rows in lexicographic order, as sub-slices of one fresh
// slab (never aliasing the input). The rows are copied flat and an
// index permutation is sorted; large inputs split into per-lane chunks
// sorted concurrently on the pool, then a k-way merge emits rows in
// order, dropping duplicates as they meet (equal rows are adjacent
// across chunk heads under a total order).
func dedupeSortRows(rows []mapreduce.Row, w int, pool *mapreduce.Pool) []mapreduce.Row {
	n := len(rows)
	f := flatRows{cells: make([]rdf.TermID, n*w), w: w}
	perm := make([]int32, n)
	for i, r := range rows {
		copy(f.row(int32(i)), r)
		perm[i] = int32(i)
	}
	lanes := 1
	if n >= parallelSortMin {
		lanes = pool.Lanes()
	}
	spans := make([][]int32, lanes)
	for i := range spans {
		spans[i] = perm[i*n/lanes : (i+1)*n/lanes]
	}
	pool.ForEach(len(spans), func(i, _ int) { f.sort(spans[i], 0) })

	// One chunk compacts in place (the write index never passes the
	// read index); several merge into a fresh index list.
	order := perm[:0]
	if len(spans) > 1 {
		order = make([]int32, 0, n)
	}
	for {
		best := -1
		for si, s := range spans {
			if len(s) > 0 && (best == -1 || f.compareFrom(s[0], spans[best][0], 0) < 0) {
				best = si
			}
		}
		if best == -1 {
			break
		}
		r := spans[best][0]
		spans[best] = spans[best][1:]
		if len(order) == 0 || f.compareFrom(order[len(order)-1], r, 0) != 0 {
			order = append(order, r)
		}
	}

	cells := make([]rdf.TermID, len(order)*w)
	out := make([]mapreduce.Row, len(order))
	for k, r := range order {
		out[k] = cells[k*w : k*w+w : k*w+w]
		copy(out[k], f.row(r))
	}
	return out
}
