package stats

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sort"
	"sync"

	"d2t2/internal/checked"
	"d2t2/internal/tensor"
	"d2t2/internal/tiling"
)

// microSummary is a compact occupancy map of the tensor at micro-tile
// granularity (base tile / MicroDiv per axis). It is what lets the model
// re-evaluate occupancy statistics exactly at any candidate tile shape
// whose dimensions are micro multiples, instead of assuming P_tile stays
// constant across shapes.
type microSummary struct {
	dims      []int // original dims
	microDims []int // micro tile size per axis
	outerDims []int // micro grid extent per axis
	keys      []uint64
	nnz       []int32
	footprint []int32
	// fpScale calibrates the Σ-of-member-footprints estimate: merging
	// micro CSFs shares upper-level metadata, so the sum overestimates a
	// retiled CSF's footprint. The scale is fit once against the exact
	// base tiling and applied to every candidate shape.
	fpScale float64
}

func buildMicroSummary(ctx context.Context, t *tensor.COO, tt *tiling.TiledTensor, microDiv, workers int) (*microSummary, error) {
	if microDiv < 1 {
		microDiv = 1
	}
	md := make([]int, len(tt.TileDims))
	for a, td := range tt.TileDims {
		md[a] = td / microDiv
		if md[a] < 1 {
			md[a] = 1
		}
	}
	ms := &microSummary{
		dims:      append([]int(nil), t.Dims...),
		microDims: md,
	}
	// Keys are stored in ascending order. The consumers aggregate the
	// micro entries order-insensitively (integer sums, maxima, set
	// counts), but the Portable encoding serializes this table verbatim —
	// a canonical order keeps the portable bytes byte-identical across
	// runs and worker counts.
	estBase := 0
	if microDiv == 1 {
		// Fast path: at micro = base the existing tiling IS the summary; no
		// second tiling pass is needed (this keeps MicroDiv=1 collection at
		// CSF-traversal cost, the regime of the paper's Fig. 7 overheads).
		ms.outerDims = append([]int(nil), tt.OuterDims...)
		ms.keys = make([]uint64, 0, len(tt.Tiles))
		for k := range tt.Tiles {
			ms.keys = append(ms.keys, k)
		}
		sort.Slice(ms.keys, func(i, j int) bool { return ms.keys[i] < ms.keys[j] })
		ms.nnz = make([]int32, len(ms.keys))
		ms.footprint = make([]int32, len(ms.keys))
		for i, k := range ms.keys {
			tile := tt.Tiles[k]
			ms.nnz[i] = checked.Int32(tile.NNZ())
			ms.footprint[i] = checked.Int32(tile.Footprint)
			estBase += tile.Footprint
		}
	} else {
		// The micro pass only needs per-tile entry counts and footprints,
		// so it runs the tiler's summary mode: same radix group-by, same
		// footprint words, no short-lived CSF per micro tile. The keys come
		// back sorted ascending already.
		sum, err := tiling.SummarizeCtx(ctx, t, md, tt.Order, workers)
		if err != nil {
			return nil, err
		}
		ms.outerDims = sum.OuterDims
		ms.keys = sum.Keys
		ms.nnz = sum.NNZ
		ms.footprint = sum.Footprint
		estBase = sum.TotalFootprint
	}

	// Fit the footprint calibration at the base shape, where the exact
	// retiled footprint is known from the initial tiling.
	ms.fpScale = 1
	if estBase > 0 && tt.TotalFootprint > 0 {
		ms.fpScale = float64(tt.TotalFootprint) / float64(estBase)
	}
	return ms, nil
}

// ShapeStats summarizes the tensor's occupancy under one candidate tile
// shape, evaluated exactly from the micro summary.
type ShapeStats struct {
	TileDims  []int
	OuterDims []int
	NumTiles  int       // non-empty tiles
	PTile     float64   // NumTiles / Π OuterDims
	Marginal  []float64 // per axis: occupied slice fraction
	Occupied  []int     // per axis: occupied slice count
	SizeTile  float64   // mean footprint words over non-empty tiles
	MaxTile   int
	// MaxTileBound is the uncalibrated sum of member micro-tile
	// footprints for the largest tile: a true upper bound on the retiled
	// CSF footprint (member boundaries align, so merging only shares
	// metadata). Fit guarantees must use this, not MaxTile.
	MaxTileBound int
	MeanNNZ      float64 // mean nnz per non-empty tile
	Density      float64 // MeanNNZ / tile area
	// PrefixOccupied[l] is the number of distinct outer coordinate
	// prefixes over levels 0..l (in the tensor's level order). The last
	// entry equals NumTiles. PrefixOccupied[l] / Π_{m<=l} OuterDims gives
	// the probability that a partially-bound subtree is non-empty — the
	// marginalized "∃ rest" terms of the traffic model (Eq. 5/14/15).
	PrefixOccupied []int
	// Order is the level order the prefixes follow (axis per level).
	Order []int
	// GroupOuter/GroupFP enumerate every non-empty tile at this shape:
	// outer coordinates in axis order and the calibrated footprint. They
	// power the model's exact cross-operand refinement (DESIGN.md §4).
	GroupOuter [][]int32
	GroupFP    []float64
	// FPScale is the calibration factor already applied to GroupFP,
	// SizeTile and MaxTile (1 when uncalibrated). GroupFP[i]/FPScale
	// recovers tile i's uncalibrated member-sum — like MaxTileBound, a
	// true upper bound on the retiled CSF footprint. The overflow
	// methods divide the calibration back out so risk admission never
	// under-predicts (the calibrated estimate can sit below a tile's
	// real footprint at shapes far from the statistics frame).
	FPScale float64
}

// PPrefix returns the probability that a subtree bound at levels 0..l is
// non-empty: PrefixOccupied[l] / Π_{m<=l} N_m.
func (sh *ShapeStats) PPrefix(l int) float64 {
	if l < 0 {
		return 1
	}
	dom := 1.0
	for m := 0; m <= l; m++ {
		dom *= float64(sh.OuterDims[sh.Order[m]])
	}
	if dom == 0 {
		return 0
	}
	return float64(sh.PrefixOccupied[l]) / dom
}

// boundScale returns the factor dividing GroupFP back to the
// uncalibrated member-sum bound (1 when never calibrated).
func (sh *ShapeStats) boundScale() float64 {
	if sh.FPScale > 0 {
		return sh.FPScale
	}
	return 1
}

// OverflowQuantile returns the smallest tile-footprint bound f (words)
// such that at most an `overflow` fraction of the non-empty tiles
// exceed f — the percentile that replaces MaxTile in the risk-aware
// Eq. 22 seed (Tailors-style overbooking). Footprints are the
// uncalibrated member-sum bounds (see FPScale), so a buffer sized to
// the quantile truly holds all but the allowed fraction of tiles.
// overflow = 0 returns the maximum (= MaxTileBound); a tensor with no
// tiles returns 0. The computation sorts a copy of GroupFP, so it is
// deterministic for a given shape.
func (sh *ShapeStats) OverflowQuantile(overflow float64) float64 {
	n := len(sh.GroupFP)
	if n == 0 {
		return 0
	}
	if overflow <= 0 {
		m := sh.GroupFP[0]
		for _, fp := range sh.GroupFP[1:] {
			if fp > m {
				m = fp
			}
		}
		return m / sh.boundScale()
	}
	sorted := append([]float64(nil), sh.GroupFP...)
	sort.Float64s(sorted)
	// `allow` tiles may exceed the returned footprint.
	allow := int(overflow * float64(n))
	if allow >= n {
		allow = n - 1
	}
	return sorted[n-1-allow] / sh.boundScale()
}

// OverflowStats returns the fraction of non-empty tiles whose footprint
// bound exceeds the buffer budget and their summed excess words — the
// model-side counterpart of exec's OverflowFetches accounting. Like
// OverflowQuantile it uses the uncalibrated member-sum bounds, so the
// rate never under-predicts the machine's per-tile overflow fraction.
// The excess accumulates in GroupFP's canonical tile-key order, so the
// float sum is deterministic.
func (sh *ShapeStats) OverflowStats(budgetWords float64) (rate, excessWords float64) {
	n := len(sh.GroupFP)
	if n == 0 {
		return 0, 0
	}
	scale := sh.boundScale()
	scaledBudget := budgetWords * scale
	over := 0
	for _, fp := range sh.GroupFP {
		if fp > scaledBudget {
			over++
			excessWords += fp - scaledBudget
		}
	}
	return float64(over) / float64(n), excessWords / scale
}

// EvalShape aggregates the micro summary into tiles of the given
// per-axis dimensions, which must be positive multiples of the micro tile
// dimensions. Footprints are summed over members, a slight overestimate
// of a retiled CSF's footprint (shared upper-level metadata), consistent
// across candidates.
func (s *Stats) EvalShape(tileDims []int) (*ShapeStats, error) {
	ms := s.micro
	if ms == nil {
		return nil, fmt.Errorf("stats: no micro summary collected")
	}
	n := len(ms.dims)
	if len(tileDims) != n {
		return nil, fmt.Errorf("stats: %d tile dims for order-%d tensor", len(tileDims), n)
	}
	factors := make([]int, n)
	for a, td := range tileDims {
		if td < 1 {
			return nil, fmt.Errorf("stats: tile dim %d on axis %d", td, a)
		}
		if td%ms.microDims[a] != 0 {
			return nil, fmt.Errorf("stats: tile dim %d on axis %d is not a multiple of micro dim %d",
				td, a, ms.microDims[a])
		}
		factors[a] = td / ms.microDims[a]
	}

	out := &ShapeStats{
		TileDims:  append([]int(nil), tileDims...),
		OuterDims: make([]int, n),
		Marginal:  make([]float64, n),
		Occupied:  make([]int, n),
	}
	area := 1.0
	for a := range out.OuterDims {
		out.OuterDims[a] = (ms.dims[a] + tileDims[a] - 1) / tileDims[a]
		area *= float64(tileDims[a])
	}

	sc := shapeScratchPool.Get().(*shapeScratch)
	defer shapeScratchPool.Put(sc)
	sc.aggregate(ms, factors, out.OuterDims)
	numTiles := len(sc.gfp)

	// Axis occupancy and the middle-level prefix counts come from the
	// groups, not the micro keys: a group is one distinct outer
	// coordinate. The level-0 prefix count is the axis occupancy of
	// Order[0] and the full prefix count is NumTiles, so only middle
	// levels (order >= 3) sort packed prefixes.
	occTotal := 0
	for a := 0; a < n; a++ {
		occTotal += out.OuterDims[a]
	}
	sc.occ = slices.Grow(sc.occ[:0], occTotal)[:occTotal]
	clear(sc.occ)
	for g := 0; g < numTiles; g++ {
		oc := sc.outer[g*n : (g+1)*n]
		for a, off := 0, 0; a < n; a++ {
			sc.occ[off+int(oc[a])] = true
			off += out.OuterDims[a]
		}
	}
	for a, off := 0, 0; a < n; a++ {
		cnt := 0
		for _, b := range sc.occ[off : off+out.OuterDims[a]] {
			if b {
				cnt++
			}
		}
		out.Occupied[a] = cnt
		off += out.OuterDims[a]
	}
	out.Order = append([]int(nil), s.Order...)
	out.PrefixOccupied = make([]int, n)
	if n > 0 {
		out.PrefixOccupied[0] = out.Occupied[s.Order[0]]
		out.PrefixOccupied[n-1] = numTiles
	}
	for l := 1; l < n-1; l++ {
		sc.prefix = sc.prefix[:0]
		for g := 0; g < numTiles; g++ {
			oc := sc.outer[g*n : (g+1)*n]
			pk := uint64(oc[s.Order[0]])
			for m := 1; m <= l; m++ {
				pk = pk<<21 | uint64(oc[s.Order[m]])
			}
			sc.prefix = append(sc.prefix, pk)
		}
		slices.Sort(sc.prefix)
		out.PrefixOccupied[l] = len(slices.Compact(sc.prefix))
	}

	// The groups arrive in ascending tile-key order, the canonical
	// enumeration; the outputs are sized exactly.
	out.NumTiles = numTiles
	out.FPScale = ms.fpScale
	ocBack := make([]int32, n*numTiles)
	copy(ocBack, sc.outer)
	out.GroupOuter = make([][]int32, numTiles)
	out.GroupFP = make([]float64, numTiles)
	totalFP, totalNNZ := 0, 0
	for g := 0; g < numTiles; g++ {
		fp := sc.gfp[g]
		totalFP += fp
		totalNNZ += sc.gnnz[g]
		if fp > out.MaxTile {
			out.MaxTile = fp
		}
		out.GroupOuter[g] = ocBack[g*n : (g+1)*n : (g+1)*n]
		out.GroupFP[g] = float64(fp)
	}
	if out.NumTiles > 0 {
		out.MaxTileBound = out.MaxTile
		out.SizeTile = ms.fpScale * float64(totalFP) / float64(out.NumTiles)
		out.MaxTile = int(ms.fpScale * float64(out.MaxTile))
		out.MeanNNZ = float64(totalNNZ) / float64(out.NumTiles)
		out.Density = out.MeanNNZ / area
		for i := range out.GroupFP {
			out.GroupFP[i] *= ms.fpScale
		}
	}
	domain := 1.0
	for _, d := range out.OuterDims {
		domain *= float64(d)
	}
	if domain > 0 {
		out.PTile = float64(out.NumTiles) / domain
	}
	for a := 0; a < n; a++ {
		if out.OuterDims[a] > 0 {
			out.Marginal[a] = float64(out.Occupied[a]) / float64(out.OuterDims[a])
		}
	}
	return out, nil
}

// denseSlabCells caps the dense scratch one axis-0 slab aggregates
// into (the product of the other axes' outer extents). Above it a
// slab's group keys are sorted instead. At the cap the pooled scratch
// is about 1.3 MB: a stamp and two sums per cell.
const denseSlabCells = 1 << 16

// shapeScratch is EvalShape's reusable aggregation state. It is pooled
// so the optimizer's concurrent sweep workers each reuse one; nothing
// in it outlives an EvalShape call.
type shapeScratch struct {
	// Dense slab cells, indexed by the row-major outer coordinate over
	// axes 1..n-1. A cell is live in the current slab when its stamp
	// equals epoch, so moving to the next slab clears nothing.
	stamp   []uint32
	nnz, fp []int
	epoch   uint32
	touched []int
	// slab holds the current slab's micro entries when the dense cells
	// would exceed denseSlabCells.
	slab []slabEntry
	// The groups (non-empty tiles) in ascending tile-key order: n outer
	// coordinates each (axis order) and the summed nnz and footprint.
	outer     []int32
	gnnz, gfp []int

	mc, oc []int
	occ    []bool
	prefix []uint64
}

type slabEntry struct {
	key     uint64 // tiling.Key of the tile's outer coordinate
	nnz, fp int
}

var shapeScratchPool = sync.Pool{New: func() any { return new(shapeScratch) }}

// aggregate groups the micro summary into tiles of factors micro tiles
// per axis, filling sc's group tables in ascending tile-key order.
//
// ms.keys ascend in tiling.Key order, whose most significant field is
// the axis-0 micro coordinate, so the tile's axis-0 outer coordinate
// never decreases: the keys split into consecutive slabs, one per
// axis-0 outer coordinate, and every group of a slab sorts before every
// group of the next. Each slab is summed into the dense cells (or, when
// those are too many, sorted by tile key) and emitted in key order; the
// row-major cell index orders exactly like the tile key within a slab.
func (sc *shapeScratch) aggregate(ms *microSummary, factors, outerDims []int) {
	n := len(factors)
	sc.outer, sc.gnnz, sc.gfp = sc.outer[:0], sc.gnnz[:0], sc.gfp[:0]
	sc.mc = slices.Grow(sc.mc[:0], n)[:n]
	sc.oc = slices.Grow(sc.oc[:0], n)[:n]
	cells, dense := 1, true
	for a := 1; a < n && dense; a++ {
		cells *= outerDims[a]
		dense = cells <= denseSlabCells
	}
	if dense && len(sc.stamp) < cells {
		sc.stamp = make([]uint32, cells)
		sc.nnz = make([]int, cells)
		sc.fp = make([]int, cells)
	}
	sc.nextEpoch()
	mc := sc.mc
	slab := -1
	for idx, k := range ms.keys {
		tiling.UnkeyInto(mc, k)
		if o0 := mc[0] / factors[0]; o0 != slab {
			sc.flushSlab(slab, outerDims, dense)
			slab = o0
		}
		nnz, fp := int(ms.nnz[idx]), int(ms.footprint[idx])
		if !dense {
			for a := range sc.oc {
				sc.oc[a] = mc[a] / factors[a]
			}
			sc.slab = append(sc.slab, slabEntry{key: tiling.Key(sc.oc), nnz: nnz, fp: fp})
			continue
		}
		c := 0
		for a := 1; a < n; a++ {
			c = c*outerDims[a] + mc[a]/factors[a]
		}
		if sc.stamp[c] != sc.epoch {
			sc.stamp[c] = sc.epoch
			sc.nnz[c], sc.fp[c] = 0, 0
			sc.touched = append(sc.touched, c)
		}
		sc.nnz[c] += nnz
		sc.fp[c] += fp
	}
	sc.flushSlab(slab, outerDims, dense)
}

// flushSlab emits the groups of axis-0 outer coordinate slab (none when
// slab < 0) in ascending tile-key order and resets the slab state.
func (sc *shapeScratch) flushSlab(slab int, outerDims []int, dense bool) {
	if slab < 0 {
		return
	}
	n := len(outerDims)
	if dense {
		slices.Sort(sc.touched)
		for _, c := range sc.touched {
			base := len(sc.outer)
			sc.outer = slices.Grow(sc.outer, n)[:base+n]
			sc.outer[base] = checked.Int32(slab)
			for a, r := n-1, c; a >= 1; a-- {
				sc.outer[base+a] = checked.Int32(r % outerDims[a])
				r /= outerDims[a]
			}
			sc.gnnz = append(sc.gnnz, sc.nnz[c])
			sc.gfp = append(sc.gfp, sc.fp[c])
		}
		sc.touched = sc.touched[:0]
		sc.nextEpoch()
		return
	}
	slices.SortFunc(sc.slab, func(x, y slabEntry) int { return cmp.Compare(x.key, y.key) })
	for i := 0; i < len(sc.slab); {
		key, nnz, fp := sc.slab[i].key, 0, 0
		for ; i < len(sc.slab) && sc.slab[i].key == key; i++ {
			nnz += sc.slab[i].nnz
			fp += sc.slab[i].fp
		}
		tiling.UnkeyInto(sc.oc, key)
		for _, v := range sc.oc {
			sc.outer = append(sc.outer, checked.Int32(v))
		}
		sc.gnnz = append(sc.gnnz, nnz)
		sc.gfp = append(sc.gfp, fp)
	}
	sc.slab = sc.slab[:0]
}

// nextEpoch retires every dense cell's stamp, clearing the stamps only
// when the epoch counter wraps.
func (sc *shapeScratch) nextEpoch() {
	sc.epoch++
	if sc.epoch == 0 {
		clear(sc.stamp)
		sc.epoch = 1
	}
}

// MicroDims returns the micro tile dimensions candidate shapes must be
// multiples of.
func (s *Stats) MicroDims() []int {
	if s.micro == nil {
		return nil
	}
	return append([]int(nil), s.micro.microDims...)
}

// SnapToMicro rounds each tile dimension to the nearest positive multiple
// of the micro dimension, clamped to the tensor dimension rounded up to a
// micro multiple.
func (s *Stats) SnapToMicro(tileDims []int) []int {
	return s.SnapToMicroInto(make([]int, len(tileDims)), tileDims)
}

// SnapToMicroInto is SnapToMicro writing into dst (which must have
// len(tileDims) and may alias tileDims for in-place snapping). It returns
// dst. This is the allocation-free variant the model's snapping hot path
// uses.
func (s *Stats) SnapToMicroInto(dst, tileDims []int) []int {
	out := dst
	for a, td := range tileDims {
		m := s.micro.microDims[a]
		q := (td + m/2) / m
		if q < 1 {
			q = 1
		}
		maxQ := (s.Dims[a] + m - 1) / m
		if q > maxQ {
			q = maxQ
		}
		out[a] = q * m
	}
	return out
}
