package schedule

import (
	"math"
	"sync"

	"lodim/internal/intmat"
	"lodim/internal/uda"
)

// This file counts processor images |S(J)|, which the joint and Pareto
// searches need once per evaluated space mapping, plus the per-row
// lower bound that prunes space mappings the searches cannot use.

// imageCounter holds the reusable buffers of the image-count kernels.
// The package functions borrow one from imageCounters, so the searches
// stop allocating per space mapping.
type imageCounter struct {
	reach []bool  // rowImageSize: sums reachable so far
	aux   []int64 // rowImageSize: steps of the current axis since a reachable sum
	bits  []uint64
	row   intmat.Vector // a row of S, copied out without allocating
	j     intmat.Vector // odometer position in J
	img   intmat.Vector // S·j, updated in place
	delta []int64       // per axis: the step of the image (or its bitset index)
}

var imageCounters = sync.Pool{New: func() any { return new(imageCounter) }}

// maxPooledWidth bounds the rowImageSize buffers a pooled counter keeps:
// a wider row tabulates in buffers that are dropped after the call, so
// one wide problem does not pin megabytes for the process lifetime.
const maxPooledWidth = 1 << 14

// maxImageBits caps the bitset of the image kernel at 2^20 bits
// (128 KiB): a larger bounding box falls back to the image set.
const maxImageBits = 1 << 20

// imageSets pools the image sets of the fallback path.
var imageSets = sync.Pool{New: func() any { return intmat.NewVecMap[struct{}](1024) }}

// maxPooledImages bounds the image sets returned to the pool: a set
// that grew past four times its initial size is dropped, so clearing a
// pooled set never costs much more than allocating a fresh one, and one
// huge index set does not pin its buckets for the process lifetime.
const maxPooledImages = 1 << 12

func getImageCounter() *imageCounter { return imageCounters.Get().(*imageCounter) }

func (ic *imageCounter) release() {
	if cap(ic.reach) > maxPooledWidth {
		ic.reach, ic.aux = nil, nil
	}
	imageCounters.Put(ic)
}

// countProcessorImages returns |S(J)| exactly: closed-form via the
// 1-D image DP for linear arrays, the odometer kernel otherwise.
func countProcessorImages(s *intmat.Matrix, set uda.IndexSet) int64 {
	ic := getImageCounter()
	defer ic.release()
	if s.Rows() == 1 {
		if n := ic.rowImageSize(ic.rowOf(s, 0), set.Upper); n >= 0 {
			return n
		}
	}
	return ic.images(s, set, imageBitsFor(set))
}

// imageBitsFor is the largest bounding box of images the kernel marks
// in a bitset for index set J: 8·|J| + 4096 bits, at most maxImageBits.
// Clearing a box that size costs at most |J|/8 + 64 words, small beside
// the |J| steps of the walk; a larger box is sparse in images and goes
// to the image set instead. The rule reads only the input's sizes.
func imageBitsFor(set uda.IndexSet) int64 {
	if set.SizeExceeds((maxImageBits - 4096) / 8) {
		return maxImageBits
	}
	return 8*set.Size() + 4096
}

// images returns |S(J)| by walking J with an odometer that keeps S·j
// up to date in place: when j_i steps up, column i of S is added; when
// j_i wraps from μ_i to 0, μ_i times that column is subtracted. Images
// are marked in a bitset over their bounding box when the box has at
// most maxBits cells, and hashed into an image set otherwise. Either
// way every S·j lies in the box, so no step overflows once the box
// corners have been computed (with checked arithmetic, failing exactly
// when some S·j itself would overflow).
func (ic *imageCounter) images(s *intmat.Matrix, set uda.IndexSet, maxBits int64) int64 {
	k, n := s.Rows(), s.Cols()
	if k == 0 {
		return 1
	}
	upper := set.Upper
	ic.j = resize(ic.j, n)
	ic.img = resize(ic.img, k)
	ic.delta = resize(ic.delta, n)
	// The box is [lo_r, hi_r] per row, laid out row-major: row r's
	// coordinate moves the bitset index by stride_r, so axis i moves it
	// by delta_i = Σ_r s_ri·stride_r.
	clear(ic.delta)
	box := int64(1)
	origin := int64(0) // bitset index of S·0 = 0
	for r := k - 1; r >= 0; r-- {
		var lo, hi int64
		for i := 0; i < n; i++ {
			if t := intmat.MulChecked(s.At(r, i), upper[i]); t < 0 {
				lo = intmat.AddChecked(lo, t)
			} else {
				hi = intmat.AddChecked(hi, t)
			}
		}
		if box > maxBits {
			continue // already too large; the corners are still checked
		}
		if hi >= lo+maxBits {
			box = maxBits + 1
			continue
		}
		stride := box
		box *= hi - lo + 1
		origin -= lo * stride
		for i := 0; i < n; i++ {
			ic.delta[i] += s.At(r, i) * stride
		}
	}
	if box <= maxBits {
		return ic.markBits(upper, origin, box)
	}
	return ic.hashImages(s, upper)
}

// markBits is the bitset path of images: ic.delta holds each axis's
// step of the bitset index.
func (ic *imageCounter) markBits(upper intmat.Vector, idx, box int64) int64 {
	words := int((box + 63) / 64)
	if cap(ic.bits) < words {
		ic.bits = make([]uint64, words)
	}
	bits := ic.bits[:words]
	clear(bits)
	j, delta := ic.j, ic.delta
	clear(j)
	n := len(j)
	count := int64(0)
	for {
		w, m := idx>>6, uint64(1)<<(idx&63)
		if bits[w]&m == 0 {
			bits[w] |= m
			count++
		}
		i := n - 1
		for ; i >= 0; i-- {
			if j[i] < upper[i] {
				j[i]++
				idx += delta[i]
				break
			}
			idx -= j[i] * delta[i]
			j[i] = 0
		}
		if i < 0 {
			return count
		}
	}
}

// hashImages is the image-set path of images, for bounding boxes too
// large for the bitset.
func (ic *imageCounter) hashImages(s *intmat.Matrix, upper intmat.Vector) int64 {
	seen := imageSets.Get().(*intmat.VecMap[struct{}])
	j, img := ic.j, ic.img
	clear(j)
	clear(img)
	n, k := len(j), len(img)
	for {
		seen.Store(intmat.KeyFor(img), struct{}{})
		i := n - 1
		for ; i >= 0; i-- {
			if j[i] < upper[i] {
				j[i]++
				for r := 0; r < k; r++ {
					img[r] += s.At(r, i)
				}
				break
			}
			for r := 0; r < k; r++ {
				img[r] -= j[i] * s.At(r, i)
			}
			j[i] = 0
		}
		if i < 0 {
			break
		}
	}
	count := seen.Len()
	if count <= maxPooledImages {
		seen.Clear()
		imageSets.Put(seen)
	}
	return int64(count)
}

// rowOf returns row r of s in ic's row buffer, valid until the next call.
func (ic *imageCounter) rowOf(s *intmat.Matrix, r int) intmat.Vector {
	ic.row = resize(ic.row, s.Cols())
	for i := range ic.row {
		ic.row[i] = s.At(r, i)
	}
	return ic.row
}

// resize returns s with length n, reusing its storage when large enough.
func resize[S ~[]E, E any](s S, n int) S {
	if cap(s) < n {
		return make(S, n)
	}
	return s[:n]
}

// rowImageSize returns |{Σ_i c_i·j_i : 0 ≤ j_i ≤ μ_i}| for one row c —
// the exact processor count of a 1-row space mapping — without touching
// the (product-sized) index set. Reflecting axis i (j_i → μ_i − j_i)
// shows the image size only depends on |c_i|, so the reachable sums are
// a subset of [0, Σ|c_i|μ_i] computed by a bounded-knapsack DP over
// that range: aux chains how many steps of one axis were taken since an
// already-reachable sum. Returns −1 when the range is too wide to
// tabulate (callers fall back to enumeration or a weaker bound). The
// DP tables live in ic's reused buffers.
func (ic *imageCounter) rowImageSize(row intmat.Vector, upper intmat.Vector) int64 {
	const maxWidth = 1 << 22
	var hi int64
	for i, c := range row {
		if c < 0 {
			c = -c
		}
		if c > 0 && upper[i] > maxWidth/c {
			return -1
		}
		hi += c * upper[i]
		if hi >= maxWidth {
			return -1
		}
	}
	if hi == 0 {
		return 1
	}
	width := int(hi) + 1
	if cap(ic.reach) < width {
		ic.reach = make([]bool, width)
		ic.aux = make([]int64, width)
	}
	reach, aux := ic.reach[:width], ic.aux[:width]
	clear(reach)
	reach[0] = true
	for i, c := range row {
		if c < 0 {
			c = -c
		}
		if c == 0 || upper[i] == 0 {
			continue
		}
		step, cnt := int(c), upper[i]
		for x := 0; x < width; x++ {
			if reach[x] {
				aux[x] = 0
				continue
			}
			a := int64(math.MaxInt64)
			if x >= step && aux[x-step] != math.MaxInt64 {
				a = aux[x-step] + 1
			}
			aux[x] = a
			if a <= cnt {
				reach[x] = true
			}
		}
	}
	var count int64
	for _, r := range reach {
		if r {
			count++
		}
	}
	return count
}
