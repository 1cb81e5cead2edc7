package intmat

import "testing"

// Allocation-budget gates for the arena-backed hot paths. These run as
// part of the ordinary test suite, so an allocation regression fails
// `go test` — not just a benchmark someone has to read. They skip under
// the race detector, whose instrumentation allocates.

func requireAllocs(t *testing.T, want float64, name string, f func()) {
	t.Helper()
	if RaceEnabled {
		t.Skip("allocation accounting is not meaningful under -race")
	}
	f() // warm up pools, arena blocks, and header slabs
	if got := testing.AllocsPerRun(100, f); got > want {
		t.Fatalf("%s allocated %.1f objects/op, budget %.1f", name, got, want)
	}
}

func TestRowNullBasisAppendAllocFree(t *testing.T) {
	h := Vec(3, -5, 7, 2)
	ar := GetArena()
	defer PutArena(ar)
	scratch := make([]Vector, 0, 8)
	requireAllocs(t, 0, "RowNullBasisAppend(arena)", func() {
		ar.Reset()
		bs, err := RowNullBasisAppend(scratch[:0], ar, h)
		if err != nil || len(bs) != 3 {
			t.Fatalf("bs=%v err=%v", bs, err)
		}
	})
}

func TestAdjugateIntoAllocFree(t *testing.T) {
	m := FromRows([]int64{2, 1, 0}, []int64{-1, 3, 2}, []int64{4, 0, 5})
	dst := New(3, 3)
	ar := GetArena()
	defer PutArena(ar)
	requireAllocs(t, 0, "AdjugateInto(arena)", func() {
		ar.Reset()
		AdjugateInto(dst, ar, m)
	})
}
