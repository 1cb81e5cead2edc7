package conflict

import (
	"errors"
	"math/rand"
	"testing"

	"lodim/internal/intmat"
	"lodim/internal/uda"
)

// TestDecideScratchAgreesWithDecide: across random (S, Π) pairs the
// scratch-backed decision — both its fresh path and its cache hits —
// must return the same verdict as the allocating Decide. Candidates are
// drawn with repeats and scalings so the cache actually fires.
func TestDecideScratchAgreesWithDecide(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	shapes := []struct{ sRows, n int }{{0, 2}, {0, 3}, {1, 3}, {1, 4}, {2, 4}, {2, 5}, {3, 5}}
	sc := GetScratch()
	defer PutScratch(sc)
	for _, sh := range shapes {
		set := uda.Cube(sh.n, 1+int64(rng.Intn(3)))
		var S *intmat.Matrix
		for {
			S = intmat.New(sh.sRows, sh.n)
			for i := 0; i < sh.sRows; i++ {
				for j := 0; j < sh.n; j++ {
					S.Set(i, j, rng.Int63n(7)-3)
				}
			}
			if sh.sRows == 0 || S.Rank() == sh.sRows {
				break
			}
		}
		sa, err := NewSpaceAnalyzer(S, set)
		if err != nil {
			t.Fatalf("NewSpaceAnalyzer: %v", err)
		}
		var pis []intmat.Vector
		for trial := 0; trial < 300; trial++ {
			var pi intmat.Vector
			switch {
			case len(pis) > 0 && trial%4 == 1:
				pi = pis[rng.Intn(len(pis))] // exact repeat → cache hit
			case len(pis) > 0 && trial%4 == 3:
				// Scaled repeat: same h line, different Π.
				c := int64(2 + rng.Intn(3))
				pi = pis[rng.Intn(len(pis))].Scale(c)
			default:
				pi = make(intmat.Vector, sh.n)
				for i := range pi {
					pi[i] = rng.Int63n(9) - 4
				}
				pis = append(pis, pi)
			}
			want, wantErr := sa.Decide(pi)
			got, gotErr := sa.DecideScratch(sc, pi)
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("error mismatch: Decide=%v DecideScratch=%v (S=\n%v Π=%v)", wantErr, gotErr, S, pi)
			}
			if wantErr != nil {
				if errors.Is(wantErr, ErrRank) != errors.Is(gotErr, ErrRank) {
					t.Fatalf("error class mismatch: Decide=%v DecideScratch=%v", wantErr, gotErr)
				}
				continue
			}
			if got.ConflictFree != want.ConflictFree {
				t.Fatalf("verdict mismatch: scratch=%v (%s) plain=%v (%s)\nS=\n%v\nΠ=%v",
					got.ConflictFree, got.Method, want.ConflictFree, want.Method, S, pi)
			}
			if !got.ConflictFree {
				// Any returned witness must be a genuine in-box conflict
				// vector of [S; Π].
				T := S.AppendRow(pi)
				if got.Witness == nil || !T.MulVec(got.Witness).IsZero() {
					t.Fatalf("witness %v not in null(T)\nT=\n%v", got.Witness, T)
				}
				for i, x := range got.Witness {
					if x < 0 {
						x = -x
					}
					if x > set.Upper[i] {
						t.Fatalf("witness %v outside box %v", got.Witness, set.Upper)
					}
				}
			}
		}
	}
	hits, misses := sc.TakeStats()
	if hits == 0 {
		t.Fatalf("cache never hit (hits=%d misses=%d): repeats and scalings should share h lines", hits, misses)
	}
}

// TestDecideScratchRebind: switching a scratch between analyzers must
// drop the cache — the key is expressed in W coordinates.
func TestDecideScratchRebind(t *testing.T) {
	set := uda.Cube(3, 4)
	sa1, err := NewSpaceAnalyzer(intmat.FromRows([]int64{1, 1, -1}), set)
	if err != nil {
		t.Fatal(err)
	}
	sa2, err := NewSpaceAnalyzer(intmat.FromRows([]int64{1, 2, 1}), set)
	if err != nil {
		t.Fatal(err)
	}
	sc := GetScratch()
	defer PutScratch(sc)
	pi := intmat.Vec(2, 0, 1)
	for _, sa := range []*SpaceAnalyzer{sa1, sa2, sa1} {
		want, err1 := sa.Decide(pi)
		got, err2 := sa.DecideScratch(sc, pi)
		if err1 != nil || err2 != nil {
			t.Fatalf("errors: %v %v", err1, err2)
		}
		if got.ConflictFree != want.ConflictFree {
			t.Fatalf("rebind verdict mismatch for S=\n%v", sa.S)
		}
	}
	hits, misses := sc.TakeStats()
	if hits != 0 || misses != 3 {
		t.Fatalf("rebind must reset the cache: hits=%d misses=%d, want 0/3", hits, misses)
	}
}

// TestDecideScratchHitAllocFree: the steady-state (cache hit) decision
// path must not touch the heap.
func TestDecideScratchHitAllocFree(t *testing.T) {
	if intmat.RaceEnabled {
		t.Skip("allocation accounting is not meaningful under -race")
	}
	set := uda.Cube(3, 4)
	sa, err := NewSpaceAnalyzer(intmat.FromRows([]int64{1, 1, -1}), set)
	if err != nil {
		t.Fatal(err)
	}
	sc := GetScratch()
	defer PutScratch(sc)
	pi := intmat.Vec(4, 1, 2)
	if _, err := sa.DecideScratch(sc, pi); err != nil { // populate the cache
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(200, func() {
		if _, err := sa.DecideScratch(sc, pi); err != nil {
			t.Fatal(err)
		}
	})
	if got > 0 {
		t.Fatalf("cache-hit DecideScratch allocated %.1f objects/op, want 0", got)
	}
	hits, _ := sc.TakeStats()
	if hits == 0 {
		t.Fatal("expected cache hits")
	}
}

// TestScratchReuseAfterLargeSearch: a scratch whose search stored at
// least scratchCacheLimit decisions is rebound to a second analyzer
// and, after a release, reused from the pool; either way its verdicts
// equal a fresh scratch's. Resets cost in proportion to use: the large
// search's well-filled cache is cleared in place for the next search,
// and once a small search has run in it, the oversized map is replaced
// instead of being cleared at its full size again.
func TestScratchReuseAfterLargeSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	set := uda.Cube(4, 3)
	big, err := NewSpaceAnalyzer(intmat.FromRows([]int64{1, 0, 0, 1}), set)
	if err != nil {
		t.Fatal(err)
	}
	next, err := NewSpaceAnalyzer(intmat.FromRows([]int64{1, 1, -1, 0}), set)
	if err != nil {
		t.Fatal(err)
	}
	randPi := func(r int64) intmat.Vector {
		pi := make(intmat.Vector, 4)
		for i := range pi {
			pi[i] = rng.Int63n(2*r+1) - r
		}
		return pi
	}
	sc := new(Scratch)
	sc.ar = intmat.GetArena()
	// Past scratchCacheLimit stored decisions the search clears its
	// cache once; it then stores on until the cache is well filled again.
	for stored := 0; stored <= scratchCacheLimit || sc.cache.Len() < scratchCacheLimit/scratchKeepSlack; {
		if _, err := big.DecideScratch(sc, randPi(40)); err == nil {
			_, misses := sc.TakeStats()
			stored += int(misses)
		}
	}
	large := sc.cache
	pis := make([]intmat.Vector, 300)
	for i := range pis {
		pis[i] = randPi(4)
		if i%3 == 2 {
			pis[i] = pis[i/2].Scale(2) // same h line as an earlier Π
		}
	}
	compare := func(what string, sc *Scratch) {
		t.Helper()
		fresh := GetScratch()
		defer PutScratch(fresh)
		for _, pi := range pis {
			want, wantErr := next.DecideScratch(fresh, pi)
			got, gotErr := next.DecideScratch(sc, pi)
			if (wantErr == nil) != (gotErr == nil) || got.ConflictFree != want.ConflictFree {
				t.Fatalf("%s: Π=%v verdict %v (%v), fresh scratch %v (%v)", what, pi, got.ConflictFree, gotErr, want.ConflictFree, wantErr)
			}
		}
	}
	compare("rebound", sc)
	if sc.cache != large {
		t.Fatal("rebinding after a search that filled its cache replaced the cache instead of clearing it")
	}
	small := sc.cache.Len()
	if _, err := big.DecideScratch(sc, randPi(4)); err != nil && !errors.Is(err, ErrRank) {
		t.Fatal(err)
	}
	if sc.cache == large {
		t.Fatalf("rebinding after a %d-entry search kept the oversized cache", small)
	}
	PutScratch(sc)
	reused := GetScratch()
	defer PutScratch(reused)
	compare("reused", reused)
}
