package stats

import (
	"cmp"
	"math/bits"
	"slices"

	"d2t2/internal/tensor"
)

// corrPlan is the deterministic sampling frame behind the paper's Corrs
// statistic (Eq. 11): which source positions along the axis are sampled
// and which positions must therefore be gathered. The plan is a pure
// function of (dim, maxShift, sampleTarget) — independent of the data —
// which is what makes per-chunk corr accumulators mergeable: every
// partial gathers the same positions, so their per-position rest-key
// multisets concatenate into exactly the multisets a from-scratch gather
// over the combined entries would produce.
type corrPlan struct {
	dim      int
	maxShift int
	// stride spaces the sampled source positions: sources are exactly
	// the multiples of stride below dim.
	stride int
	needed []bool
}

func newCorrPlan(dim, maxShift, sampleTarget int) *corrPlan {
	if maxShift >= dim {
		maxShift = dim - 1
	}
	if maxShift < 0 {
		maxShift = 0
	}
	// Choose sampled source positions up front so only the entries inside
	// their shift windows are grouped and sorted — this is what keeps the
	// collection pass proportional to the paper's 1%-of-tiles sampling
	// rather than to the whole tensor.
	stride := 1
	if sampleTarget > 0 && dim > sampleTarget {
		stride = dim / sampleTarget
	}
	pl := &corrPlan{dim: dim, maxShift: maxShift, stride: stride, needed: make([]bool, dim)}
	for k := 0; k < dim; k += stride {
		for s := 0; s <= maxShift && k+s < dim; s++ {
			pl.needed[k+s] = true
		}
	}
	return pl
}

// gather groups the needed entries by coordinate along axis; the "rest"
// of each entry (all other axes) is encoded into a single uint64 key.
// Count-then-fill into one flat backing array instead of a map of
// growing slices: two passes over the entries, a handful of allocations
// total. Each position's slice flat[off[k]:off[k+1]] comes back sorted —
// the canonical accumulator form Partial serializes and Merge merges.
func (pl *corrPlan) gather(t *tensor.COO, axis int) (off []int32, flat []uint64) {
	dim := pl.dim
	cnt := make([]int32, dim+1)
	for p := 0; p < t.NNZ(); p++ {
		if k := t.Crds[axis][p]; pl.needed[k] {
			cnt[k+1]++
		}
	}
	off = make([]int32, dim+1)
	for k := 0; k < dim; k++ {
		off[k+1] = off[k] + cnt[k+1]
	}
	flat = make([]uint64, off[dim])
	cur := make([]int32, dim)
	copy(cur, off[:dim])
	for p := 0; p < t.NNZ(); p++ {
		k := t.Crds[axis][p]
		if !pl.needed[k] {
			continue
		}
		var key uint64
		for a := 0; a < t.Order(); a++ {
			if a == axis {
				continue
			}
			key = key*uint64(t.Dims[a]) + uint64(t.Crds[a][p])
		}
		flat[cur[k]] = key
		cur[k]++
	}
	for k := 0; k < dim; k++ {
		slices.Sort(flat[off[k]:off[k+1]])
	}
	return off, flat
}

// finalize replays the overlap accumulation over a gathered (or merged)
// accumulator: for positions k and k+s along the axis, the overlap
// between the rest-key multisets of their entries, summed over sampled k
// and normalized so shift 0 is 1.
//
// The overlap of two sorted multisets is Σ_key min(count_k, count_{k+s}),
// so it is computed per rest-key fiber: the (rest key, position) pairs
// are sorted once, and each fiber adds min(count_p, count_q) to
// overlap[q-p] for every sampled source p and every q within maxShift
// of it. The overlaps are integer counts, summed exactly, and convert
// to float64 exactly below 2^53 entries — so the curve is bit-identical
// to summing per-source float intersections in any order, and identical
// accumulators yield byte-identical curves however they were assembled.
func (pl *corrPlan) finalize(off []int32, flat []uint64) []float64 {
	overlap := make([]int64, pl.maxShift+1)
	pl.fiberOverlaps(off, flat, overlap)
	out := make([]float64, pl.maxShift+1)
	// Shift 0 pairs every source entry with itself: the base count.
	base := float64(overlap[0])
	if base == 0 {
		out[0] = 1
		return out
	}
	for s := range out {
		out[s] = float64(overlap[s]) / base
	}
	out[0] = 1
	return out
}

// fiberOverlaps adds, for every rest-key fiber, min(count_p, count_q)
// to overlap[q-p] over sampled sources p and positions p <= q <=
// p+maxShift. The pairs sort as one packed uint64 when the rest key and
// the position fit together, and as structs otherwise.
func (pl *corrPlan) fiberOverlaps(off []int32, flat []uint64, overlap []int64) {
	var maxKey uint64
	for _, k := range flat {
		maxKey = max(maxKey, k)
	}
	posBits := bits.Len(uint(pl.dim - 1))
	var fiber fiberScan
	if bits.Len64(maxKey)+posBits <= 64 {
		packed := make([]uint64, 0, len(flat))
		for k := 0; k < pl.dim; k++ {
			for _, key := range flat[off[k]:off[k+1]] {
				packed = append(packed, key<<posBits|uint64(k))
			}
		}
		slices.Sort(packed)
		mask := uint64(1)<<posBits - 1
		for i, v := range packed {
			if i > 0 && v>>posBits != packed[i-1]>>posBits {
				fiber.flush(pl, overlap)
			}
			fiber.add(int(v & mask))
		}
	} else {
		type pair struct {
			key uint64
			pos int
		}
		pairs := make([]pair, 0, len(flat))
		for k := 0; k < pl.dim; k++ {
			for _, key := range flat[off[k]:off[k+1]] {
				pairs = append(pairs, pair{key, k})
			}
		}
		slices.SortFunc(pairs, func(x, y pair) int {
			if c := cmp.Compare(x.key, y.key); c != 0 {
				return c
			}
			return cmp.Compare(x.pos, y.pos)
		})
		for i, p := range pairs {
			if i > 0 && p.key != pairs[i-1].key {
				fiber.flush(pl, overlap)
			}
			fiber.add(p.pos)
		}
	}
	fiber.flush(pl, overlap)
}

// fiberScan run-length encodes one rest-key fiber's ascending positions.
type fiberScan struct {
	pos, cnt []int
}

func (f *fiberScan) add(p int) {
	if n := len(f.pos); n > 0 && f.pos[n-1] == p {
		f.cnt[n-1]++
		return
	}
	f.pos = append(f.pos, p)
	f.cnt = append(f.cnt, 1)
}

// flush adds the fiber's overlap counts and empties it.
func (f *fiberScan) flush(pl *corrPlan, overlap []int64) {
	for i, p := range f.pos {
		if p%pl.stride != 0 {
			continue
		}
		for j := i; j < len(f.pos) && f.pos[j]-p <= pl.maxShift; j++ {
			overlap[f.pos[j]-p] += int64(min(f.cnt[i], f.cnt[j]))
		}
	}
	f.pos, f.cnt = f.pos[:0], f.cnt[:0]
}

// corrsAxis computes the paper's Corrs statistic (Eq. 11) generalized to
// arbitrary-order tensors, as one plan → gather → finalize composition.
//
// The paper averages within sampled tiles; we compute against the full
// coordinate range with sampled source positions, which measures the same
// reduction potential (overlaps produce output reuse wherever they fall)
// while bounding cost by sampleTarget × maxShift merge passes.
func corrsAxis(t *tensor.COO, axis, maxShift, sampleTarget int) []float64 {
	pl := newCorrPlan(t.Dims[axis], maxShift, sampleTarget)
	off, flat := pl.gather(t, axis)
	return pl.finalize(off, flat)
}

// tileCorrs computes the paper's TileCorrs statistic (Eq. 12) with the
// conditional normalization of DESIGN.md §4: TileCorrs[s] is the
// probability that slice i+s is occupied given slice i is, so shift 0 is
// 1, an uncorrelated sparse occupancy gives the marginal density, and a
// fully dense occupancy gives 1 at every shift.
func tileCorrs(occ []bool, maxShift int) []float64 {
	if maxShift >= len(occ) {
		maxShift = len(occ) - 1
	}
	if maxShift < 0 {
		maxShift = 0
	}
	out := make([]float64, maxShift+1)
	out[0] = 1
	for s := 1; s <= maxShift; s++ {
		both, valid := 0, 0
		for i := 0; i+s < len(occ); i++ {
			if occ[i] {
				valid++
				if occ[i+s] {
					both++
				}
			}
		}
		if valid > 0 {
			out[s] = float64(both) / float64(valid)
		}
	}
	return out
}
