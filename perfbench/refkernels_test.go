package main

import "testing"

func mat(dims []int, entries ...[3]float64) *refTensor {
	t := &refTensor{dims: dims}
	for _, e := range entries {
		t.crd = append(t.crd, []int{int(e[0]), int(e[1])})
		t.val = append(t.val, e[2])
	}
	return t
}

func ten3(dims []int, entries ...[4]float64) *refTensor {
	t := &refTensor{dims: dims}
	for _, e := range entries {
		t.crd = append(t.crd, []int{int(e[0]), int(e[1]), int(e[2])})
		t.val = append(t.val, e[3])
	}
	return t
}

func expectOut(t *testing.T, r *refResult, want map[[3]int]float64) {
	t.Helper()
	var crd [][]int
	var val []float64
	for c, v := range want {
		crd = append(crd, append([]int(nil), c[:len(r.dims)]...))
		val = append(val, v)
	}
	if err := r.compareOutput(crd, val, 1e-12); err != nil {
		t.Fatal(err)
	}
}

// A = [[1 2] [0 3]], B = [[4 0] [5 6]]: A·B = [[14 12] [15 18]] from
// the products 1·4, 2·5, 2·6, 3·5, 3·6.
func TestRefSpMSpMIKJ(t *testing.T) {
	a := mat([]int{2, 2}, [3]float64{0, 0, 1}, [3]float64{0, 1, 2}, [3]float64{1, 1, 3})
	b := mat([]int{2, 2}, [3]float64{0, 0, 4}, [3]float64{1, 0, 5}, [3]float64{1, 1, 6})
	r := refSpMSpMIKJ(a, b)
	expectOut(t, r, map[[3]int]float64{{0, 0}: 14, {0, 1}: 12, {1, 0}: 15, {1, 1}: 18})
	if r.products != 5 || r.used["A"] != 3 || r.used["B"] != 3 {
		t.Fatalf("products %d used %v", r.products, r.used)
	}
}

// Same operands with B stored transposed (j,k): A·Bᵀ of B' = [[4 5] [0 6]].
func TestRefSpMSpMIJK(t *testing.T) {
	a := mat([]int{2, 2}, [3]float64{0, 0, 1}, [3]float64{0, 1, 2}, [3]float64{1, 1, 3})
	bt := mat([]int{2, 2}, [3]float64{0, 0, 4}, [3]float64{0, 1, 5}, [3]float64{1, 1, 6})
	r := refSpMSpMIJK(a, bt)
	expectOut(t, r, map[[3]int]float64{{0, 0}: 14, {0, 1}: 12, {1, 0}: 15, {1, 1}: 18})
	if r.products != 5 {
		t.Fatalf("products %d", r.products)
	}
}

// X(i,j,k) = Σ_l C(i,j,l)·B(k,l): C(0,0,0)=2, C(0,1,1)=3, C(1,0,1)=1;
// B(0,1)=10, B(1,0)=5, B(1,1)=7. Entry C(0,0,0) meets B(1,0): X(0,0,1)=10;
// C(0,1,1) meets B(0,1), B(1,1): X(0,1,0)=30, X(0,1,1)=21; C(1,0,1) gives
// X(1,0,0)=10, X(1,0,1)=7.
func TestRefTTM(t *testing.T) {
	c := ten3([]int{2, 2, 2}, [4]float64{0, 0, 0, 2}, [4]float64{0, 1, 1, 3}, [4]float64{1, 0, 1, 1})
	b := mat([]int{2, 2}, [3]float64{0, 1, 10}, [3]float64{1, 0, 5}, [3]float64{1, 1, 7})
	r := refTTM(c, b)
	expectOut(t, r, map[[3]int]float64{{0, 0, 1}: 10, {0, 1, 0}: 30, {0, 1, 1}: 21, {1, 0, 0}: 10, {1, 0, 1}: 7})
	if r.products != 5 || r.used["C"] != 3 || r.used["B"] != 3 {
		t.Fatalf("products %d used %v", r.products, r.used)
	}
}

// D(i,j) = Σ_{k,l} A(i,k,l)·B(j,k)·C(j,l) with A(0,0,1)=2, A(1,1,0)=3;
// B(0,0)=1, B(1,0)=4, B(1,1)=5; C(0,1)=6, C(1,0)=7.
// A(0,0,1) pairs with B(0,0) (j=0, C(0,1)=6: 12) and B(1,0) (j=1, C(1,1)
// absent); A(1,1,0) pairs with B(1,1) (j=1, C(1,0)=7: 105).
func TestRefMTTKRP3(t *testing.T) {
	a := ten3([]int{2, 2, 2}, [4]float64{0, 0, 1, 2}, [4]float64{1, 1, 0, 3})
	b := mat([]int{2, 2}, [3]float64{0, 0, 1}, [3]float64{1, 0, 4}, [3]float64{1, 1, 5})
	c := mat([]int{2, 2}, [3]float64{0, 1, 6}, [3]float64{1, 0, 7})
	r := refMTTKRP3(a, b, c, nil)
	expectOut(t, r, map[[3]int]float64{{0, 0}: 12, {1, 1}: 105})
	if r.products != 2 || r.partials != 2 {
		t.Fatalf("1x1 tiles: products %d partials %d", r.products, r.partials)
	}
	// One 2x2 tile of C holds entries, so the pair A(0,0,1)·B(1,0) is
	// formed too even though C(1,1) is absent.
	if r := refMTTKRP3(a, b, c, map[string]int{"j": 2, "l": 2}); r.partials != 3 || r.products != 2 {
		t.Fatalf("2x2 tiles: products %d partials %d", r.products, r.partials)
	}
	if r.used["A"] != 2 || r.used["B"] != 2 || r.used["C"] != 2 {
		t.Fatalf("used %v", r.used)
	}
}

// E(i,j) = Σ_k S(i,j)·A(i,k)·B(k,j) with S(0,1)=2, S(1,0)=3; A(0,0)=1,
// A(0,1)=4, A(1,1)=5; B(0,1)=6, B(1,0)=7, B(1,1)=8.
// E(0,1) = 2·(1·6 + 4·8) = 76; E(1,0) = 3·5·7 = 105.
func TestRefSDDMM(t *testing.T) {
	s := mat([]int{2, 2}, [3]float64{0, 1, 2}, [3]float64{1, 0, 3})
	a := mat([]int{2, 2}, [3]float64{0, 0, 1}, [3]float64{0, 1, 4}, [3]float64{1, 1, 5})
	b := mat([]int{2, 2}, [3]float64{0, 1, 6}, [3]float64{1, 0, 7}, [3]float64{1, 1, 8})
	r := refSDDMM(s, a, b, nil)
	expectOut(t, r, map[[3]int]float64{{0, 1}: 76, {1, 0}: 105})
	if r.products != 3 || r.partials != 3 {
		t.Fatalf("products %d partials %d", r.products, r.partials)
	}
}

func TestCompareOutputRejects(t *testing.T) {
	a := mat([]int{2, 2}, [3]float64{0, 0, 1})
	b := mat([]int{2, 2}, [3]float64{0, 0, 2})
	r := refSpMSpMIKJ(a, b)
	if err := r.compareOutput([][]int{{0, 0}}, []float64{2.0000001}, 1e-9); err == nil {
		t.Fatal("a value off by 5e-8 relative passed a 1e-9 check")
	}
	if err := r.compareOutput([][]int{{0, 0}, {1, 1}}, []float64{2, 1}, 1e-9); err == nil {
		t.Fatal("an extra output entry passed")
	}
	if err := r.compareOutput(nil, nil, 1e-9); err == nil {
		t.Fatal("a missing output entry passed")
	}
}
