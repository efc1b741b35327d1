package physical

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"unsafe"

	"cliquesquare/internal/mapreduce"
	"cliquesquare/internal/rdf"
)

// refDedupe is the seed's string-keyed deduplication, keeping first
// occurrences in order. With refSort it is the oracle for the flat
// dedupeSortRows.
func refDedupe(rows []mapreduce.Row) []mapreduce.Row {
	seen := make(map[string]bool, len(rows))
	out := rows[:0:0]
	for _, row := range rows {
		vals := make([]uint32, len(row))
		for i, v := range row {
			vals[i] = uint32(v)
		}
		k := mapreduce.EncodeKey(0, vals)
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, row)
	}
	return out
}

// refSort is the former result sort: sort.Slice over row headers,
// lexicographic by cell, then by length.
func refSort(rows []mapreduce.Row) {
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		for k := 0; k < len(a) && k < len(b); k++ {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return len(a) < len(b)
	})
}

func randomRows(rng *rand.Rand, n, w, domain int) []mapreduce.Row {
	rows := make([]mapreduce.Row, n)
	for i := range rows {
		row := make(mapreduce.Row, w)
		for j := range row {
			row[j] = rdf.TermID(rng.Intn(domain))
		}
		rows[i] = row
	}
	return rows
}

// TestDedupeMatchesReference checks dedupeSortRows against the
// dedupe-then-sort oracle over widths 1–4, small id domains (so
// duplicates are common), sizes around the insertion-sort and
// parallel-sort cut-offs, and pools of every width.
func TestDedupeMatchesReference(t *testing.T) {
	sizes := []int{0, 1, 16, 17, parallelSortMin - 1, parallelSortMin, parallelSortMin + 1, 50000}
	pools := map[string]*mapreduce.Pool{"nil": nil}
	for _, lanes := range []int{1, 2, 4} {
		p := mapreduce.NewPool(lanes)
		defer p.Close()
		pools[fmt.Sprint(lanes)] = p
	}
	for trial, n := range sizes {
		for w := 1; w <= 4; w++ {
			rng := rand.New(rand.NewSource(int64(100*trial + w)))
			rows := randomRows(rng, n, w, 2+rng.Intn(12))
			want := refDedupe(rows)
			refSort(want)
			for name, pool := range pools {
				in := append([]mapreduce.Row(nil), rows...)
				got := dedupeSortRows(in, w, pool)
				if len(got) != len(want) {
					t.Fatalf("n=%d w=%d pool=%s: %d rows, want %d", n, w, name, len(got), len(want))
				}
				for i := range got {
					if !reflect.DeepEqual(got[i], want[i]) {
						t.Fatalf("n=%d w=%d pool=%s: row %d = %v, want %v", n, w, name, i, got[i], want[i])
					}
					// Rows are consecutive w-wide windows of one slab.
					if cap(got[i]) != w || i > 0 && uintptr(unsafe.Pointer(&got[i][0]))-uintptr(unsafe.Pointer(&got[i-1][0])) != uintptr(4*w) {
						t.Fatalf("n=%d w=%d pool=%s: row %d is not the next window of the result slab", n, w, name, i)
					}
				}
				if len(got) > 0 {
					got[0][0] = ^rdf.TermID(0)
					if rows[0][0] == ^rdf.TermID(0) {
						t.Fatalf("n=%d w=%d pool=%s: result aliases the input rows", n, w, name)
					}
				}
			}
		}
	}
}

// TestDedupeAllocations pins the flat finish's allocation contract: a
// constant number of slabs per call, whatever the row count — not a
// key, bucket or header per row.
func TestDedupeAllocations(t *testing.T) {
	for _, n := range []int{1024, 4 * parallelSortMin} {
		rows := make([]mapreduce.Row, n)
		for i := range rows {
			rows[i] = mapreduce.Row{rdf.TermID(i % 200), rdf.TermID(i % 11)}
		}
		if got := testing.AllocsPerRun(20, func() {
			dedupeSortRows(rows, 2, nil)
		}); got > 6 {
			t.Errorf("dedupeSortRows of %d rows: %v allocs/op, want <= 6", n, got)
		}
	}
}
