package schedule

import (
	"fmt"
	"math/rand"
	"testing"

	"lodim/internal/intmat"
	"lodim/internal/uda"
)

// bruteImages is |S(J)| by brute force: every S·j rendered into a set.
func bruteImages(s *intmat.Matrix, set uda.IndexSet) int {
	seen := map[string]bool{}
	set.Each(func(j intmat.Vector) bool {
		seen[s.MulVec(j).String()] = true
		return true
	})
	return len(seen)
}

// imageBox is the number of cells of the bounding box of S(J).
func imageBox(s *intmat.Matrix, upper intmat.Vector) int64 {
	box := int64(1)
	for r := 0; r < s.Rows(); r++ {
		var lo, hi int64
		for i, u := range upper {
			if t := s.At(r, i) * u; t < 0 {
				lo += t
			} else {
				hi += t
			}
		}
		box *= hi - lo + 1
	}
	return box
}

// TestProcessorImagesProperty: on random full-rank S with 1–3 rows and
// entries in [−3, 3], over random μ with zero bounds included, the
// odometer kernel counts exactly the brute-force image set — on the
// path its bounding box selects, and forced onto the bitset and onto
// the image set alike. Boxes fall on both sides of the threshold. For
// 1-row S the count also agrees with the closed-form rowImageSize.
func TestProcessorImagesProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	ic := new(imageCounter)
	var bitset, hashed int
	for trial := 0; trial < 400; trial++ {
		n := 2 + rng.Intn(4)
		k := 1 + rng.Intn(min(3, n-1))
		upper := make(intmat.Vector, n)
		for i := range upper {
			upper[i] = int64(rng.Intn(5)) // 0 included
		}
		s := intmat.New(k, n)
		for s.Rank() != k {
			for r := 0; r < k; r++ {
				for i := 0; i < n; i++ {
					s.Set(r, i, rng.Int63n(7)-3)
				}
			}
		}
		set := uda.IndexSet{Upper: upper}
		want := int64(bruteImages(s, set))
		what := fmt.Sprintf("S=%v μ=%v", s, upper)
		if imageBox(s, upper) <= imageBitsFor(set) {
			bitset++
		} else {
			hashed++
		}
		if got := ic.images(s, set, imageBitsFor(set)); got != want {
			t.Fatalf("%s: images = %d, want %d", what, got, want)
		}
		if got := ic.images(s, set, 1<<40); got != want {
			t.Fatalf("%s: bitset path = %d, want %d", what, got, want)
		}
		if got := ic.images(s, set, 0); got != want {
			t.Fatalf("%s: image-set path = %d, want %d", what, got, want)
		}
		if got := countProcessorImages(s, set); got != want {
			t.Fatalf("%s: countProcessorImages = %d, want %d", what, got, want)
		}
		if k == 1 {
			if got := new(imageCounter).rowImageSize(s.Row(0), upper); got != want {
				t.Fatalf("%s: rowImageSize = %d, want %d", what, got, want)
			}
		}
	}
	if bitset == 0 || hashed == 0 {
		t.Fatalf("threshold split the cases %d bitset / %d image set; want both sides", bitset, hashed)
	}
}

// BenchmarkProcessorImages times |S(J)| for a 2-row S on a 9×9×9 index
// set, on the bitset its bounding box selects and forced onto the image
// set that larger boxes fall back to.
func BenchmarkProcessorImages(b *testing.B) {
	s := intmat.FromRows([]int64{1, 1, 0}, []int64{0, 1, -1})
	set := uda.Cube(3, 8)
	want := int64(bruteImages(s, set))
	for _, c := range []struct {
		name    string
		maxBits int64
	}{{"bitset", imageBitsFor(set)}, {"imageset", 0}} {
		b.Run(c.name, func(b *testing.B) {
			ic := new(imageCounter)
			for i := 0; i < b.N; i++ {
				if got := ic.images(s, set, c.maxBits); got != want {
					b.Fatalf("images = %d, want %d", got, want)
				}
			}
		})
	}
}
