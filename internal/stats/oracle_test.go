package stats

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"d2t2/internal/checked"
	"d2t2/internal/tensor"
	"d2t2/internal/tiling"
)

// evalShapeMap is the map-and-sort EvalShape the slab aggregation
// replaced, kept as the differential oracle. It aggregates the micro summary into tiles of the given
// per-axis dimensions, which must be positive multiples of the micro tile
// dimensions. Footprints are summed over members, a slight overestimate
// of a retiled CSF's footprint (shared upper-level metadata), consistent
// across candidates.
func evalShapeMap(s *Stats, tileDims []int) (*ShapeStats, error) {
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

	// Aggregation state is laid out flat — an index map into an []agg
	// slice, []bool occupancy per axis over one backing array, and prefix
	// sets only for the middle levels (the first level's prefix count is
	// the axis occupancy of Order[0]; the last level's is NumTiles, both
	// free) — so the per-micro-key loop below allocates nothing. This is
	// the optimizer's hottest loop: EvalShape runs per (ref, candidate
	// shape) and ms.keys is the full micro-tile population.
	type agg struct {
		nnz, fp int
	}
	gid := make(map[uint64]int32, len(ms.keys)/2+1)
	aggs := make([]agg, 0, len(ms.keys)/2+1)
	gkeys := make([]uint64, 0, len(ms.keys)/2+1)
	occTotal := 0
	for a := 0; a < n; a++ {
		occTotal += out.OuterDims[a]
	}
	occBack := make([]bool, occTotal)
	axisOcc := make([][]bool, n)
	for a, off := 0, 0; a < n; a++ {
		axisOcc[a] = occBack[off : off+out.OuterDims[a] : off+out.OuterDims[a]]
		off += out.OuterDims[a]
	}
	var prefixOcc []map[uint64]struct{}
	if n > 2 {
		prefixOcc = make([]map[uint64]struct{}, n)
		for l := 1; l < n-1; l++ {
			prefixOcc[l] = make(map[uint64]struct{})
		}
	}
	mc := make([]int, n)
	oc := make([]int, n)
	for idx, k := range ms.keys {
		tiling.UnkeyInto(mc, k)
		for a := range oc {
			oc[a] = mc[a] / factors[a]
			axisOcc[a][oc[a]] = true
		}
		if n > 2 {
			pk := uint64(oc[s.Order[0]])
			for l := 1; l < n-1; l++ {
				pk = pk<<21 | uint64(oc[s.Order[l]])
				prefixOcc[l][pk] = struct{}{}
			}
		}
		gk := tiling.Key(oc)
		g, ok := gid[gk]
		if !ok {
			g = checked.Int32(len(aggs))
			gid[gk] = g
			aggs = append(aggs, agg{})
			gkeys = append(gkeys, gk)
		}
		aggs[g].nnz += int(ms.nnz[idx])
		aggs[g].fp += int(ms.footprint[idx])
	}
	out.Order = append([]int(nil), s.Order...)
	out.PrefixOccupied = make([]int, n)
	for a := 0; a < n; a++ {
		cnt := 0
		for _, b := range axisOcc[a] {
			if b {
				cnt++
			}
		}
		out.Occupied[a] = cnt
	}
	// The level-0 prefix is just the first level's axis coordinate and the
	// full prefix is the whole outer coordinate, so both counts come from
	// state already built; only middle levels (order ≥ 3) need real sets.
	if n > 0 {
		out.PrefixOccupied[0] = out.Occupied[s.Order[0]]
		out.PrefixOccupied[n-1] = len(aggs)
	}
	for l := 1; l < n-1; l++ {
		out.PrefixOccupied[l] = len(prefixOcc[l])
	}

	out.NumTiles = len(aggs)
	out.FPScale = ms.fpScale
	totalFP, totalNNZ := 0, 0
	// Sort the groups by key through a permutation so the enumeration
	// below is canonical regardless of first-appearance order.
	perm := make([]int, len(gkeys))
	for i := range perm {
		perm[i] = i
	}
	sort.Slice(perm, func(x, y int) bool { return gkeys[perm[x]] < gkeys[perm[y]] })
	out.GroupOuter = make([][]int32, 0, len(aggs))
	out.GroupFP = make([]float64, 0, len(aggs))
	ocBack := make([]int32, n*len(aggs))
	for gi, pi := range perm {
		g := aggs[pi]
		totalFP += g.fp
		totalNNZ += g.nnz
		if g.fp > out.MaxTile {
			out.MaxTile = g.fp
		}
		tiling.UnkeyInto(mc, gkeys[pi])
		oc32 := ocBack[gi*n : (gi+1)*n : (gi+1)*n]
		for a, v := range mc {
			oc32[a] = checked.Int32(v)
		}
		out.GroupOuter = append(out.GroupOuter, oc32)
		out.GroupFP = append(out.GroupFP, float64(g.fp))
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

// finalizeIntersect is the per-shift sorted-intersection Corrs finalize
// the fiber histogram replaced, kept as the differential oracle. It replays the overlap accumulation over a gathered (or merged)
// accumulator: for positions k and k+s along the axis, the overlap
// between the rest-key multisets of their entries, summed over sampled k
// and normalized so shift 0 is 1. The replay is deterministic given the
// sorted per-position multisets, so identical accumulators yield
// byte-identical curves regardless of how they were assembled.
func finalizeIntersect(pl *corrPlan, off []int32, flat []uint64) []float64 {
	rest := func(k int) []uint64 { return flat[off[k]:off[k+1]] }
	overlap := make([]float64, pl.maxShift+1)
	base := 0.0
	for k := 0; k < pl.dim; k += pl.stride {
		lk := rest(k)
		if len(lk) == 0 {
			continue
		}
		base += float64(len(lk))
		for s := 0; s <= pl.maxShift && k+s < pl.dim; s++ {
			ls := rest(k + s)
			if len(ls) == 0 {
				continue
			}
			overlap[s] += float64(sortedIntersection(lk, ls))
		}
	}
	out := make([]float64, pl.maxShift+1)
	if base == 0 {
		out[0] = 1
		return out
	}
	for s := range out {
		out[s] = overlap[s] / base
	}
	// Normalize so shift 0 is exactly 1 (it equals base by construction).
	if out[0] > 0 && out[0] != 1 {
		for s := range out {
			out[s] /= out[0]
		}
	}
	out[0] = 1
	return out
}

// sortedIntersection returns |a ∩ b| for sorted slices.
func sortedIntersection(a, b []uint64) int {
	i, j, n := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}

// randomCOO draws an order-n tensor whose entries cluster in a few
// blobs, so tiles share rows, fibers and rest keys.
func randomCOO(r *rand.Rand, dims []int, nnz int) *tensor.COO {
	t := tensor.New(dims...)
	centers := make([][]int, 1+r.Intn(4))
	for i := range centers {
		centers[i] = make([]int, len(dims))
		for a, d := range dims {
			centers[i][a] = r.Intn(d)
		}
	}
	coord := make([]int, len(dims))
	for p := 0; p < nnz; p++ {
		c := centers[r.Intn(len(centers))]
		for a, d := range dims {
			if r.Intn(3) == 0 {
				coord[a] = r.Intn(d)
			} else {
				coord[a] = min(d-1, max(0, c[a]+r.Intn(d/4+1)-d/8))
			}
		}
		t.Append(coord, float64(p%7+1))
	}
	t.Dedup()
	return t
}

// candidateShapes lists up to limit micro-multiple tile shapes,
// including the micro shape itself and shapes spanning whole axes.
func candidateShapes(r *rand.Rand, s *Stats, limit int) [][]int {
	micro := s.MicroDims()
	shapes := [][]int{append([]int(nil), micro...)}
	for len(shapes) < limit {
		sh := make([]int, len(micro))
		for a, m := range micro {
			maxQ := (s.Dims[a] + m - 1) / m
			switch r.Intn(4) {
			case 0:
				sh[a] = m
			case 1:
				sh[a] = maxQ * m
			default:
				sh[a] = (1 + r.Intn(maxQ)) * m
			}
		}
		shapes = append(shapes, sh)
	}
	return shapes
}

// checkEvalShape compares EvalShape against the map oracle at every
// shape and reports how many shapes took the sorted-slab fallback.
func checkEvalShape(t *testing.T, s *Stats, shapes [][]int) (sparse int) {
	t.Helper()
	for _, sh := range shapes {
		got, err := s.EvalShape(sh)
		if err != nil {
			t.Fatalf("EvalShape(%v): %v", sh, err)
		}
		want, err := evalShapeMap(s, sh)
		if err != nil {
			t.Fatalf("oracle(%v): %v", sh, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("EvalShape(%v) differs from the map oracle:\n got %+v\nwant %+v", sh, got, want)
		}
		cells := 1
		for _, o := range got.OuterDims[1:] {
			cells *= o
		}
		if cells > denseSlabCells {
			sparse++
		}
	}
	return sparse
}

// TestEvalShapeMatchesMapOracle pins the slab aggregation to the
// map-and-sort implementation it replaced: DeepEqual ShapeStats on
// random order-2/3/4 tensors, every MicroDiv regime, statistics built
// by Merge, and shapes whose slabs overflow the dense scratch.
func TestEvalShapeMatchesMapOracle(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	sparse := 0
	for it := 0; it < 24; it++ {
		n := 2 + it%3
		dims := make([]int, n)
		base := make([]int, n)
		for a := range dims {
			dims[a] = 8 + r.Intn(90)
			base[a] = 1 << (1 + r.Intn(4))
		}
		if n == 3 && it%2 == 1 {
			// Big trailing axes: the micro-shape slab has > denseSlabCells
			// cells, exercising the sorted-slab fallback.
			dims[1], dims[2] = 700, 700
			base[1], base[2] = 2, 2
		}
		m := randomCOO(r, dims, 50+r.Intn(1500))
		order := r.Perm(n)
		opts := &Options{MicroDiv: []int{1, 2, 8}[r.Intn(3)], Workers: 1 + r.Intn(3)}
		s, _, err := Collect(m, base, order, opts)
		if err != nil {
			t.Fatal(err)
		}
		sparse += checkEvalShape(t, s, candidateShapes(r, s, 12))

		if n > 3 {
			// Order-4 tile keys overflow 64 bits (tiling.Key packs 21 bits
			// per axis), so tiles alias on axis 0 and a tile-boundary split
			// no longer yields disjoint key sets.
			continue
		}
		// The same statistics assembled by Merge from two halves split
		// on base-tile boundaries (Merge requires disjoint tiles).
		a, b := tensor.New(dims...), tensor.New(dims...)
		for p := 0; p < m.NNZ(); p++ {
			parity := 0
			for ax, c := range m.At(p) {
				parity += c / base[ax]
			}
			if parity%2 == 0 {
				a.Append(m.At(p), m.Vals[p])
			} else {
				b.Append(m.At(p), m.Vals[p])
			}
		}
		pa, err := CollectPartial(a, base, order, opts)
		if err != nil {
			t.Fatal(err)
		}
		pb, err := CollectPartial(b, base, order, opts)
		if err != nil {
			t.Fatal(err)
		}
		merged, err := Merge(pa, pb)
		if err != nil {
			t.Fatal(err)
		}
		ms, err := merged.Finalize()
		if err != nil {
			t.Fatal(err)
		}
		checkEvalShape(t, ms, candidateShapes(r, ms, 6))
	}
	if sparse == 0 {
		t.Fatal("no shape exercised the sorted-slab fallback")
	}
}

// randomCorrAccum draws a gathered accumulator for pl: per needed
// position a sorted rest-key multiset over keys below keySpace, offset
// by keyBase (a large keyBase forces the unpacked pair sort).
func randomCorrAccum(r *rand.Rand, pl *corrPlan, keySpace, keyBase uint64, fill int) ([]int32, []uint64) {
	off := make([]int32, pl.dim+1)
	var flat []uint64
	for k := 0; k < pl.dim; k++ {
		if pl.needed[k] && r.Intn(4) != 0 {
			start := len(flat)
			for i := r.Intn(fill + 1); i > 0; i-- {
				flat = append(flat, keyBase+uint64(r.Int63n(int64(keySpace))))
			}
			slices.Sort(flat[start:])
		}
		off[k+1] = int32(len(flat))
	}
	return off, flat
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestCorrsFinalizeMatchesIntersection pins the fiber-histogram
// finalize to the per-shift sorted intersection it replaced, bit for
// bit: random multisets with duplicate keys, accumulators merged by
// mergeCorrAccum, keys too wide to pack beside the position, and
// accumulators gathered from random tensors.
func TestCorrsFinalizeMatchesIntersection(t *testing.T) {
	r := rand.New(rand.NewSource(15))
	check := func(pl *corrPlan, off []int32, flat []uint64) {
		t.Helper()
		got, want := pl.finalize(off, flat), finalizeIntersect(pl, off, flat)
		if !sameBits(got, want) {
			t.Fatalf("dim %d shift %d stride %d: got %v, want %v", pl.dim, pl.maxShift, pl.stride, got, want)
		}
	}
	for it := 0; it < 300; it++ {
		dim := 1 + r.Intn(300)
		pl := newCorrPlan(dim, r.Intn(40), 1+r.Intn(64))
		keySpace := uint64(1 + r.Intn(50))
		var keyBase uint64
		if it%5 == 0 {
			keyBase = 1 << 62
		}
		offA, flatA := randomCorrAccum(r, pl, keySpace, keyBase, 6)
		check(pl, offA, flatA)
		offB, flatB := randomCorrAccum(r, pl, keySpace, keyBase, 6)
		off, flat := mergeCorrAccum(offA, flatA, offB, flatB)
		check(pl, off, flat)
	}
	for it := 0; it < 30; it++ {
		n := 2 + it%3
		dims := make([]int, n)
		for a := range dims {
			dims[a] = 4 + r.Intn(200)
		}
		m := randomCOO(r, dims, 100+r.Intn(2000))
		for ax := 0; ax < n; ax++ {
			pl := newCorrPlan(dims[ax], r.Intn(32), 1+r.Intn(64))
			off, flat := pl.gather(m, ax)
			check(pl, off, flat)
		}
	}
}

// FuzzEvalShape compares EvalShape with the map oracle on fuzzed small
// tensors, base tiles and candidate shapes.
func FuzzEvalShape(f *testing.F) {
	f.Add([]byte{3, 2, 40, 30, 20, 5, 9, 1, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{2, 1, 200, 17, 1, 1, 0, 0, 0, 199, 16, 5, 5})
	f.Add([]byte{4, 3, 9, 9, 9, 9, 1, 2, 3, 4, 5, 6, 7, 8, 9, 1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 8 {
			return
		}
		n := 2 + int(data[0])%3
		microDiv := []int{1, 2, 4, 8}[data[1]%4]
		data = data[2:]
		if len(data) < n {
			return
		}
		dims := make([]int, n)
		for a := range dims {
			dims[a] = 1 + int(data[a])
		}
		seed := int64(0)
		for _, b := range data {
			seed = seed*131 + int64(b)
		}
		r := rand.New(rand.NewSource(seed))
		base := make([]int, n)
		for a := range base {
			base[a] = 1 << r.Intn(5)
		}
		m := randomCOO(r, dims, len(data)*8)
		s, _, err := Collect(m, base, r.Perm(n), &Options{MicroDiv: microDiv, Workers: 1})
		if err != nil {
			t.Skip(err)
		}
		checkEvalShape(t, s, candidateShapes(r, s, 4))
	})
}

// FuzzCorrsFinalize compares the fiber-histogram Corrs finalize with
// the sorted-intersection oracle on fuzzed plans and multisets.
func FuzzCorrsFinalize(f *testing.F) {
	f.Add(uint16(40), uint8(6), uint8(8), uint8(5), false, []byte{1, 2, 3, 4, 5, 6})
	f.Add(uint16(1), uint8(0), uint8(0), uint8(1), true, []byte{0})
	f.Add(uint16(500), uint8(30), uint8(3), uint8(40), true, []byte{9, 9, 9})
	f.Fuzz(func(t *testing.T, dim uint16, maxShift, sampleTarget, keySpace uint8, wide bool, seed []byte) {
		if dim == 0 || dim > 2000 {
			return
		}
		s := int64(0)
		for _, b := range seed {
			s = s*257 + int64(b)
		}
		r := rand.New(rand.NewSource(s))
		pl := newCorrPlan(int(dim), int(maxShift), int(sampleTarget))
		var keyBase uint64
		if wide {
			keyBase = math.MaxUint64 - 1<<10
		}
		off, flat := randomCorrAccum(r, pl, uint64(keySpace)+1, keyBase, 5)
		got, want := pl.finalize(off, flat), finalizeIntersect(pl, off, flat)
		if !sameBits(got, want) {
			t.Fatalf("got %v, want %v", got, want)
		}
	})
}
