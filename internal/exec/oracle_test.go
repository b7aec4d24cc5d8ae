package exec

import (
	"math/rand"
	"sort"
	"testing"

	"d2t2/internal/checked"
	"d2t2/internal/einsum"
	"d2t2/internal/gen"
	"d2t2/internal/tensor"
	"d2t2/internal/tiling"
)

// flushOutputSort is the walker output flush the packed-key footprint
// replaced, kept as the differential oracle: it decodes per-entry
// coordinates, closure-sorts them by the output level order and counts
// CSF fibers from the sorted coordinates.
func flushOutputSort(r *runner) {
	nnz := len(r.outAcc)
	if nnz == 0 {
		return
	}
	if r.opts.ValuesOnly {
		r.traffic.Output += int64(nnz)
		r.traffic.OutputWrites++
		r.traffic.OutputNNZ += int64(nnz)
		return
	}
	keys := make([]uint64, 0, nnz)
	for k := range r.outAcc {
		keys = append(keys, k)
	}
	// Decode inner coordinates and order them by the output level order.
	nOut := len(r.e.Out.Indices)
	coords := make([][]int32, nnz)
	for i, k := range keys {
		c := make([]int32, nOut)
		for a := nOut - 1; a >= 0; a-- {
			c[a] = checked.Int32(int(k % uint64(r.outTileDims[a])))
			k /= uint64(r.outTileDims[a])
		}
		coords[i] = c
	}
	lv := r.e.LevelOrder(r.e.Out)
	sort.Slice(coords, func(x, y int) bool {
		for _, a := range lv {
			if coords[x][a] != coords[y][a] {
				return coords[x][a] < coords[y][a]
			}
		}
		return false
	})
	// CSF footprint: values + per-level coordinate and segment words.
	words := nnz
	fibers := make([]int, nOut)
	for i := range coords {
		div := 0
		if i > 0 {
			for div = 0; div < nOut; div++ {
				if coords[i][lv[div]] != coords[i-1][lv[div]] {
					break
				}
			}
		}
		for l := div; l < nOut; l++ {
			fibers[l]++
		}
	}
	for l := 0; l < nOut; l++ {
		words += fibers[l] // coordinates
		if l == 0 {
			words += 2
		} else {
			words += fibers[l-1] + 1
		}
	}
	writes := int64(1)
	if b := r.opts.OutputBufferWords; b > 0 && words > b {
		// Overflow streaming (§6): the tile leaves the chip in
		// ceil(words/b) chunks; every extra chunk repeats the per-partial
		// segment overhead (root segment bounds plus a descriptor word).
		writes = int64((words + b - 1) / b)
		words += int(writes-1) * (nOut + 2)
		r.traffic.OutputOverflows += writes - 1
	}
	r.traffic.Output += int64(words)
	r.traffic.OutputWrites += writes
	r.traffic.OutputNNZ += int64(nnz)
	if r.opts.Trace != nil {
		outOuter := make([]int, len(r.e.Out.Indices))
		for a, oix := range r.e.Out.Indices {
			outOuter[a] = int(r.bound[r.e.OrderPos(oix)])
		}
		r.trace("write", "OUT", outOuter, int64(words))
	}
}

// outputCounters keeps the Traffic fields the output flush writes.
func outputCounters(t Traffic) [4]int64 {
	return [4]int64{t.Output, t.OutputWrites, t.OutputNNZ, t.OutputOverflows}
}

// flushOptions are the output-flush regimes: plain CSF footprints,
// overflow chunking at two buffer sizes, and values-only counting.
func flushOptions() []Options {
	return []Options{{}, {OutputBufferWords: 24}, {OutputBufferWords: 5000}, {ValuesOnly: true}}
}

// TestFlushOutputMatchesSortOracle drives the packed-key flush and the
// closure-sort oracle with identical random output tiles — order-1 to
// order-3 outputs, every level order, tiles above the engine's dense
// accumulator cap — and demands identical output counters.
func TestFlushOutputMatchesSortOracle(t *testing.T) {
	r := rand.New(rand.NewSource(16))
	for _, c := range []struct {
		expr  *einsum.Expr
		tiles map[string]int
	}{
		{einsum.SpMSpMIKJ(), map[string]int{"i": 7, "k": 3, "j": 5}},
		{einsum.SpMSpMIJK(), map[string]int{"i": 1024, "j": 2048, "k": 4}},
		{einsum.TTM(), map[string]int{"i": 6, "j": 4, "k": 9, "l": 2}},
		{einsum.MustParse("y(j) = A(i,j)*x(i) | order: i,j"), map[string]int{"i": 4, "j": 300}},
		{einsum.MustParse("C(j,i) = A(i,k)*B(k,j) | order: i,k,j"), map[string]int{"i": 12, "k": 3, "j": 10}},
	} {
		tens := make(map[string]*tiling.TiledTensor)
		for _, ref := range c.expr.Inputs() {
			dims := make([]int, len(ref.Indices))
			for a, ix := range ref.Indices {
				dims[a] = 3 * c.tiles[ix]
			}
			tens[ref.Name] = tileFor(t, c.expr, ref.Name, randomCOO(r, dims, 20), c.tiles)
		}
		for _, opts := range flushOptions() {
			host, err := newRunner(c.expr, tens, &opts)
			if err != nil {
				t.Fatal(err)
			}
			cells := uint64(1)
			for _, td := range host.outTileDims {
				cells *= uint64(td)
			}
			for it := 0; it < 40; it++ {
				acc := make(map[uint64]float64)
				for i := 1 + r.Intn(400); i > 0; i-- {
					// Clustered draws share fibers; uniform ones rarely do.
					k := uint64(r.Int63n(int64(cells)))
					if it%2 == 0 {
						k = uint64(r.Int63n(int64(min(cells, 64))))
					}
					acc[k] = 1
				}
				got, want := host.clone(), host.clone()
				got.outAcc, want.outAcc = acc, acc
				got.flushOutput()
				flushOutputSort(want)
				if outputCounters(got.traffic) != outputCounters(want.traffic) {
					t.Fatalf("%s %+v: flush counters %v, oracle %v", c.expr, opts,
						outputCounters(got.traffic), outputCounters(want.traffic))
				}
			}
		}
	}
}

// TestWalkerAboveEngineCapMatchesOracle runs the walker end to end on
// an inner-product SpMSpM whose 1024×1025 output tile exceeds the
// engine's dense accumulator cap, so only the walker can run it. Under
// ijk the output tile is stationary across k and written once per (i,j)
// tile, so the collected output regrouped by tile replays every flush
// through the oracle.
func TestWalkerAboveEngineCapMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	e := einsum.SpMSpMIJK()
	a := gen.UniformRandom(r, 1100, 1100, 4000)
	tiles := map[string]int{"i": 1024, "j": 1025, "k": 64}
	tens := map[string]*tiling.TiledTensor{
		"A": tileFor(t, e, "A", a, tiles),
		"B": tileFor(t, e, "B", a.Clone(), tiles),
	}
	for _, opts := range flushOptions() {
		opts.CollectOutput = true
		opts.Workers = 2
		res, err := Measure(e, tens, &opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.Specialized {
			t.Fatal("the engine accepted an output tile above maxEngineAcc")
		}
		host, err := newRunner(e, tens, &opts)
		if err != nil {
			t.Fatal(err)
		}
		byTile := make(map[[2]int]map[uint64]float64)
		for p := 0; p < res.Out.NNZ(); p++ {
			i, j := res.Out.Crds[0][p], res.Out.Crds[1][p]
			tk := [2]int{i / tiles["i"], j / tiles["j"]}
			if byTile[tk] == nil {
				byTile[tk] = make(map[uint64]float64)
			}
			byTile[tk][uint64(i%tiles["i"])*uint64(tiles["j"])+uint64(j%tiles["j"])] = res.Out.Vals[p]
		}
		want := host.clone()
		for _, acc := range byTile {
			want.outAcc = acc
			flushOutputSort(want)
		}
		if outputCounters(res.Traffic) != outputCounters(want.traffic) {
			t.Fatalf("%+v: walker output counters %v, oracle %v", opts,
				outputCounters(res.Traffic), outputCounters(want.traffic))
		}
	}
}

// randomCOO draws nnz uniform entries (duplicates summed).
func randomCOO(r *rand.Rand, dims []int, nnz int) *tensor.COO {
	m := tensor.New(dims...)
	coord := make([]int, len(dims))
	for p := 0; p < nnz; p++ {
		for a, d := range dims {
			coord[a] = r.Intn(d)
		}
		m.Append(coord, 1+r.Float64())
	}
	m.Dedup()
	return m
}
