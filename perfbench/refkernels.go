package main

// Independent reference kernels: plain map-based loops over coordinate
// lists that share no code with the program's exec, tiling or formats
// packages. The cold-kernels workload checks Plan.Execute output, the MAC
// count and the compulsory input footprint against them.

import (
	"fmt"
	"math"
	"sort"
)

// refTensor is a sparse tensor as a coordinate list: crd[p] is the
// coordinate tuple of entry p and val[p] its value.
type refTensor struct {
	dims []int
	crd  [][]int
	val  []float64
}

// refResult is a reference kernel's output: the result entries keyed by
// packed coordinates, the number of nonzero scalar products, and, per
// operand, how many of its entries took part in at least one product.
type refResult struct {
	dims []int
	out  map[int64]float64
	// products counts full products (one per contributing coordinate
	// tuple of every index variable); partials counts the pairwise
	// products of the first two operands of a three-operand kernel that
	// a left-to-right join forms on the way. A tiled machine forms a
	// partial only inside a tile iteration where the third operand's
	// tile holds an entry, so partials counts just those (with 1×1 tiles
	// when tiles is nil, only the partials that complete a product).
	products int64
	partials int64
	used     map[string]int
}

func pack(dims []int, c ...int) int64 {
	var k int64
	for a, v := range c {
		k = k*int64(dims[a]) + int64(v)
	}
	return k
}

func newResult(dims ...int) *refResult {
	return &refResult{dims: dims, out: map[int64]float64{}, used: map[string]int{}}
}

// markUsed records which entries of each operand took part in a product.
type usedSet map[string]map[int]bool

func (u usedSet) mark(name string, p int) {
	if u[name] == nil {
		u[name] = map[int]bool{}
	}
	u[name][p] = true
}

func (u usedSet) into(r *refResult) {
	for name, s := range u {
		r.used[name] = len(s)
	}
}

// byAxis groups a tensor's entry positions by their coordinate on axis.
func byAxis(t *refTensor, axis int) map[int][]int {
	g := map[int][]int{}
	for p, c := range t.crd {
		g[c[axis]] = append(g[c[axis]], p)
	}
	return g
}

// refSpMSpMIKJ computes C(i,j) = Σ_k A(i,k)·B(k,j).
func refSpMSpMIKJ(a, b *refTensor) *refResult {
	r := newResult(a.dims[0], b.dims[1])
	u := usedSet{}
	rows := byAxis(b, 0)
	for p, ca := range a.crd {
		for _, q := range rows[ca[1]] {
			r.out[pack(r.dims, ca[0], b.crd[q][1])] += a.val[p] * b.val[q]
			r.products++
			u.mark("A", p)
			u.mark("B", q)
		}
	}
	u.into(r)
	return r
}

// refSpMSpMIJK computes C(i,j) = Σ_k A(i,k)·B(j,k).
func refSpMSpMIJK(a, b *refTensor) *refResult {
	r := newResult(a.dims[0], b.dims[0])
	u := usedSet{}
	cols := byAxis(b, 1)
	for p, ca := range a.crd {
		for _, q := range cols[ca[1]] {
			r.out[pack(r.dims, ca[0], b.crd[q][0])] += a.val[p] * b.val[q]
			r.products++
			u.mark("A", p)
			u.mark("B", q)
		}
	}
	u.into(r)
	return r
}

// refTTM computes X(i,j,k) = Σ_l C(i,j,l)·B(k,l).
func refTTM(c, b *refTensor) *refResult {
	r := newResult(c.dims[0], c.dims[1], b.dims[0])
	u := usedSet{}
	cols := byAxis(b, 1)
	for p, cc := range c.crd {
		for _, q := range cols[cc[2]] {
			r.out[pack(r.dims, cc[0], cc[1], b.crd[q][0])] += c.val[p] * b.val[q]
			r.products++
			u.mark("C", p)
			u.mark("B", q)
		}
	}
	u.into(r)
	return r
}

// tileSet records which tiles of a matrix hold an entry, for the tile
// sides of its two index variables (1×1 tiles when tiles is nil).
func tileSet(t *refTensor, tiles map[string]int, row, col string) func(i, j int) bool {
	tr, tc := max(tiles[row], 1), max(tiles[col], 1)
	occ := map[[2]int]bool{}
	for _, c := range t.crd {
		occ[[2]int{c[0] / tr, c[1] / tc}] = true
	}
	return func(i, j int) bool { return occ[[2]int{i / tr, j / tc}] }
}

// refMTTKRP3 computes D(i,j) = Σ_{k,l} A(i,k,l)·B(j,k)·C(j,l).
func refMTTKRP3(a, b, c *refTensor, tiles map[string]int) *refResult {
	r := newResult(a.dims[0], b.dims[0])
	u := usedSet{}
	bk := byAxis(b, 1)
	cjl := map[int64]int{}
	for q, cc := range c.crd {
		cjl[pack(c.dims, cc[0], cc[1])] = q
	}
	cTile := tileSet(c, tiles, "j", "l")
	for p, ca := range a.crd {
		for _, q := range bk[ca[1]] {
			j := b.crd[q][0]
			if cTile(j, ca[2]) {
				r.partials++
			}
			s, ok := cjl[pack(c.dims, j, ca[2])]
			if !ok {
				continue
			}
			r.out[pack(r.dims, ca[0], j)] += a.val[p] * b.val[q] * c.val[s]
			r.products++
			u.mark("A", p)
			u.mark("B", q)
			u.mark("C", s)
		}
	}
	u.into(r)
	return r
}

// refSDDMM computes E(i,j) = Σ_k S(i,j)·A(i,k)·B(k,j).
func refSDDMM(s, a, b *refTensor, tiles map[string]int) *refResult {
	r := newResult(s.dims[0], s.dims[1])
	u := usedSet{}
	ai := byAxis(a, 0)
	bkj := map[int64]int{}
	for q, cb := range b.crd {
		bkj[pack(b.dims, cb[0], cb[1])] = q
	}
	bTile := tileSet(b, tiles, "k", "j")
	for p, cs := range s.crd {
		for _, q := range ai[cs[0]] {
			k := a.crd[q][1]
			if bTile(k, cs[1]) {
				r.partials++
			}
			w, ok := bkj[pack(b.dims, k, cs[1])]
			if !ok {
				continue
			}
			r.out[pack(r.dims, cs[0], cs[1])] += s.val[p] * a.val[q] * b.val[w]
			r.products++
			u.mark("S", p)
			u.mark("A", q)
			u.mark("B", w)
		}
	}
	u.into(r)
	return r
}

// compareOutput checks a computed output, given as coordinate tuples and
// values, against the reference within relative tolerance tol. Explicit
// zeros in either side are ignored.
func (r *refResult) compareOutput(crd [][]int, val []float64, tol float64) error {
	got := make(map[int64]float64, len(val))
	for p, c := range crd {
		if len(c) != len(r.dims) {
			return fmt.Errorf("output entry %d has order %d, want %d", p, len(c), len(r.dims))
		}
		for a, v := range c {
			if v < 0 || v >= r.dims[a] {
				return fmt.Errorf("output entry %d: coordinate %v outside dims %v", p, c, r.dims)
			}
		}
		got[pack(r.dims, c...)] += val[p]
	}
	keys := make([]int64, 0, len(r.out)+len(got))
	for k := range r.out {
		keys = append(keys, k)
	}
	for k := range got {
		if _, ok := r.out[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(x, y int) bool { return keys[x] < keys[y] })
	for _, k := range keys {
		want, g := r.out[k], got[k]
		scale := math.Max(math.Abs(want), math.Abs(g))
		if scale == 0 {
			continue
		}
		if math.Abs(want-g) > tol*scale {
			return fmt.Errorf("output at packed coordinate %d: got %v, want %v", k, g, want)
		}
	}
	return nil
}
