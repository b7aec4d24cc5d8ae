package exec

import (
	"context"
	"sync"

	"d2t2/internal/par"
)

// engineState is one worker's mutable state for a compiled plan: loop
// cursors, the dense output-tile accumulator, join scratch and private
// traffic counters. All buffers are sized at construction from the
// plan's caps and reused across every tile the worker claims — the
// steady-state inner loops allocate nothing.
type engineState struct {
	p *enginePlan

	cursors  [][]int32 // per depth, per ref: outer-CSF position
	rlo, rhi [][]int32 // per depth, per binds[d] entry: child range
	bound    []int32   // bound outer coordinate per depth

	inputWords []int64 // per ref occurrence
	traffic    Traffic // integer counters only (Input map stays nil)
	collect    map[uint64]float64

	// Hash-join scratch: chained buckets with heads storing position+1
	// (0 = empty), chains built in reverse so iteration ascends —
	// matching the walker's append-order buckets term for term.
	heads   []int32
	nextEnt []int32

	// Relation ping-pong buffers for materialized middle join steps.
	tupBuf [2][]int32
	valBuf [2][]float64

	// Dense per-output-tile accumulator: flat axis-order index within
	// the tile. A stamp per cell replaces clearing; touched lists the
	// live cells of the current tile scope (an entry whose terms sum to
	// zero still counts toward nnz, exactly like the walker's map).
	acc     []float64
	stamp   []uint32
	epoch   uint32
	touched []int32
	ord     []uint64 // flush scratch: level-order sort keys
}

func newEngineState(p *enginePlan) *engineState {
	nrefs := len(p.refs)
	s := &engineState{p: p}
	s.cursors = make([][]int32, p.depth+1)
	for d := range s.cursors {
		s.cursors[d] = make([]int32, nrefs)
	}
	s.rlo = make([][]int32, p.depth)
	s.rhi = make([][]int32, p.depth)
	for d := 0; d < p.depth; d++ {
		s.rlo[d] = make([]int32, len(p.binds[d]))
		s.rhi[d] = make([]int32, len(p.binds[d]))
	}
	s.bound = make([]int32, p.depth)
	s.inputWords = make([]int64, nrefs)
	if p.host.collect != nil {
		s.collect = make(map[uint64]float64)
	}
	if p.maxHeads > 0 {
		s.heads = make([]int32, p.maxHeads)
	}
	if p.maxEnts > 0 {
		s.nextEnt = make([]int32, p.maxEnts)
	}
	s.acc = make([]float64, p.accSize)
	s.stamp = make([]uint32, p.accSize)
	return s
}

// run executes the compiled plan: serially with a per-work-unit context
// check, or over the par pool with one engineState per worker (claimed
// by shared counter for load balance, registered at construction for
// the post-join merge). Traffic merges are exact integer sums; with
// CollectOutput the workers' key ranges are disjoint (workersFor), so
// the collected output is identical at any worker count.
func (p *enginePlan) run(ctx context.Context, workers int) error {
	n := len(p.topVals)
	if n == 0 {
		return ctx.Err()
	}
	if workers <= 1 {
		s := newEngineState(p)
		for vi := 0; vi < n; vi++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			s.runTop(vi)
		}
		s.mergeInto(p.host)
		return nil
	}

	var mu sync.Mutex
	var states []*engineState
	newScratch := func() *engineState {
		s := newEngineState(p)
		mu.Lock()
		states = append(states, s)
		mu.Unlock()
		return s
	}
	err := par.ForEachScratchCtx(ctx, workers, n, newScratch, func(vi int, s *engineState) error {
		s.runTop(vi)
		return nil
	})
	if err != nil {
		return err
	}
	mu.Lock()
	defer mu.Unlock()
	for _, s := range states {
		s.mergeInto(p.host)
	}
	return nil
}

// runTop executes one outermost work unit: coordinate value topVals[vi],
// with every depth-0 binding ref advanced to its precomputed position.
func (s *engineState) runTop(vi int) {
	p := s.p
	next := s.cursors[1]
	for i := range next {
		next[i] = 0
	}
	for i, b := range p.binds[0] {
		next[b.ri] = p.topPos[i][vi]
	}
	s.bound[0] = p.topVals[vi]
	armed := p.outDepth == 0
	if armed {
		s.beginTile()
	}
	if s.nest(1) {
		s.fetchAt(0)
	}
	if armed {
		s.flushTile()
	}
}

// nest iterates loop depth d: the binding ref with the smallest child
// range drives, the others are probed by binary search (the same
// intersection the walker computes, without materializing it). Returns
// whether any work happened below — the walker's fetch gate.
func (s *engineState) nest(d int) bool {
	p := s.p
	if d == p.depth {
		s.traffic.TileIterations++
		if p.two {
			s.leaf2()
		} else {
			s.leafN()
		}
		return true
	}
	binds := p.binds[d]
	cur := s.cursors[d]
	next := s.cursors[d+1]
	rlo, rhi := s.rlo[d], s.rhi[d]
	drv := 0
	for i, b := range binds {
		node := 0
		if b.level > 0 {
			node = int(cur[b.ri])
		}
		lo, hi := p.refs[b.ri].csf.Children(int(b.level), node)
		//d2t2:ignore coordwidth lo and hi are read back out of the int32 Seg array by Children; the round-trip cannot widen past int32, and this is the innermost measurement loop
		rlo[i], rhi[i] = int32(lo), int32(hi)
		if rhi[i]-rlo[i] < rhi[drv]-rlo[drv] {
			drv = i
		}
	}
	db := binds[drv]
	dcrd := p.refs[db.ri].csf.Crd[db.level]
	copy(next, cur)
	armed := d == p.outDepth
	work := false
	for x := rlo[drv]; x < rhi[drv]; x++ {
		v := dcrd[x]
		next[db.ri] = x
		ok := true
		for i, b := range binds {
			if i == drv {
				continue
			}
			bp := searchCrd(p.refs[b.ri].csf.Crd[b.level], rlo[i], rhi[i], v)
			if bp < 0 {
				ok = false
				break
			}
			next[b.ri] = bp
		}
		if !ok {
			continue
		}
		s.bound[d] = v
		if armed {
			s.beginTile()
		}
		if s.nest(d + 1) {
			work = true
			s.fetchAt(d)
		}
		if armed {
			s.flushTile()
		}
	}
	return work
}

// fetchAt charges every ref whose fetch space completes at depth d: its
// precomputed tile cost at the outer-CSF leaf position the cursors
// point at.
func (s *engineState) fetchAt(d int) {
	p := s.p
	next := s.cursors[d+1]
	for _, ri := range p.fetch[d] {
		er := &p.refs[ri]
		lp := next[ri]
		s.inputWords[ri] += er.cost[lp]
		s.traffic.InputFetches++
		if er.over[lp] {
			s.traffic.OverflowFetches++
		}
	}
}

// beginTile opens a fresh output-tile scope: bump the epoch instead of
// clearing the dense accumulator (a full clear only on the ~never
// wraparound).
func (s *engineState) beginTile() {
	s.epoch++
	if s.epoch == 0 {
		clear(s.stamp)
		s.epoch = 1
	}
	s.touched = s.touched[:0]
}

// emit accumulates one output term at tile-local coordinates c — the
// engine's replacement for the walker's outAcc map write — and, when
// collecting, adds the term to the global output at the identical
// chronological position, so collected float sums are bit-identical.
func (s *engineState) emit(v float64, c *[maxEngineOut]int32) {
	p := s.p
	idx := int32(0)
	for a := 0; a < p.nOut; a++ {
		idx = idx*p.outTileDims[a] + c[a]
	}
	if s.stamp[idx] != s.epoch {
		s.stamp[idx] = s.epoch
		s.acc[idx] = v
		s.touched = append(s.touched, idx)
	} else {
		s.acc[idx] += v
	}
	if s.collect != nil {
		var gk uint64
		for a := 0; a < p.nOut; a++ {
			g := uint64(s.bound[p.outOrderPos[a]])*uint64(p.outTileDims[a]) + uint64(c[a])
			gk = gk*uint64(p.outDims[a]) + g
		}
		s.collect[gk] += v
	}
}

// leaf2 is the fused two-operand leaf: hash ri1's tile entries on the
// shared coordinates (exact mixed-radix keys), stream ri0's entries
// through the table, and emit each product directly.
func (s *engineState) leaf2() {
	p := s.p
	cur := s.cursors[p.depth]
	e0 := &p.refs[p.ri0].ents[cur[p.ri0]]
	e1 := &p.refs[p.ri1].ents[cur[p.ri1]]
	heads := s.heads[:p.heads2]
	clear(heads)
	next := s.nextEnt
	for t := len(e1.vals) - 1; t >= 0; t-- {
		k := int32(0)
		for x, a1 := range p.sharedA1 {
			k = k*p.shDims2[x] + e1.crds[a1][t]
		}
		next[t] = heads[k]
		//d2t2:ignore coordwidth t indexes a tile entry list whose length is bounded by the int32 tile volume; this is the innermost join loop
		heads[k] = int32(t) + 1
	}
	nOut := p.nOut
	n0 := len(e0.vals)
	for t := 0; t < n0; t++ {
		k := int32(0)
		for x, a0 := range p.sharedA0 {
			k = k*p.shDims2[x] + e0.crds[a0][t]
		}
		vt := e0.vals[t]
		for q := heads[k]; q != 0; q = next[q-1] {
			pi := int(q - 1)
			s.traffic.MACs++
			var c [maxEngineOut]int32
			for a := 0; a < nOut; a++ {
				if p.outSide[a] == 0 {
					c[a] = e0.crds[p.outAxis[a]][t]
				} else {
					c[a] = e1.crds[p.outAxis[a]][pi]
				}
			}
			s.emit(vt*e1.vals[pi], &c)
		}
	}
}

// leafN is the general leaf: materialize ri0's entries as the initial
// relation, run the precomputed middle join steps through the ping-pong
// buffers, then fuse the last step (or, for a single-ref product, emit
// the relation directly). Step order, tuple order and term order match
// joinProduct exactly.
func (s *engineState) leafN() {
	p := s.p
	cur := s.cursors[p.depth]
	e0 := &p.refs[p.ri0].ents[cur[p.ri0]]
	n := len(e0.vals)
	rank0 := len(e0.crds)
	stride := rank0
	if need := n * stride; cap(s.tupBuf[0]) < need {
		s.tupBuf[0] = make([]int32, need+need/2)
	}
	tup := s.tupBuf[0][:n*stride]
	for t := 0; t < n; t++ {
		for a := 0; a < rank0; a++ {
			tup[t*stride+a] = e0.crds[a][t]
		}
	}
	if cap(s.valBuf[0]) < n {
		s.valBuf[0] = make([]float64, n+n/2)
	}
	vals := s.valBuf[0][:n]
	copy(vals, e0.vals)

	buf := 0
	for mi := range p.mids {
		st := &p.mids[mi]
		en := &p.refs[st.ri].ents[cur[st.ri]]
		s.chain(st, en)
		heads, next := s.heads[:st.heads], s.nextEnt
		ob := 1 - buf
		outTup := s.tupBuf[ob][:0]
		outVals := s.valBuf[ob][:0]
		nt := len(vals)
		for t := 0; t < nt; t++ {
			base := tup[t*stride : (t+1)*stride]
			k := int32(0)
			for x, vp := range st.sharedRel {
				k = k*st.shDims[x] + base[vp]
			}
			for q := heads[k]; q != 0; q = next[q-1] {
				pi := int(q - 1)
				outTup = append(outTup, base...)
				for _, a := range st.newAxes {
					outTup = append(outTup, en.crds[a][pi])
				}
				outVals = append(outVals, vals[t]*en.vals[pi])
			}
		}
		s.traffic.MACs += int64(len(outVals))
		s.tupBuf[ob] = outTup
		s.valBuf[ob] = outVals
		tup, vals, stride, buf = outTup, outVals, st.strideOut, ob
		if len(vals) == 0 {
			return
		}
	}

	if p.last == nil {
		nt := len(vals)
		for t := 0; t < nt; t++ {
			base := tup[t*stride : (t+1)*stride]
			var c [maxEngineOut]int32
			for a := 0; a < p.nOut; a++ {
				c[a] = base[p.outFromTuple[a]]
			}
			s.emit(vals[t], &c)
		}
		return
	}

	st := p.last
	en := &p.refs[st.ri].ents[cur[st.ri]]
	s.chain(st, en)
	heads, next := s.heads[:st.heads], s.nextEnt
	nt := len(vals)
	for t := 0; t < nt; t++ {
		base := tup[t*stride : (t+1)*stride]
		k := int32(0)
		for x, vp := range st.sharedRel {
			k = k*st.shDims[x] + base[vp]
		}
		vt := vals[t]
		for q := heads[k]; q != 0; q = next[q-1] {
			pi := int(q - 1)
			s.traffic.MACs++
			var c [maxEngineOut]int32
			for a := 0; a < p.nOut; a++ {
				if vp := p.outFromTuple[a]; vp >= 0 {
					c[a] = base[vp]
				} else {
					c[a] = en.crds[p.outFromProbe[a]][pi]
				}
			}
			s.emit(vt*en.vals[pi], &c)
		}
	}
}

// chain rebuilds the bucket chains for one join step's probe entries,
// in reverse so bucket iteration ascends by entry position.
func (s *engineState) chain(st *joinStep, en *entryList) {
	heads := s.heads[:st.heads]
	clear(heads)
	next := s.nextEnt
	for t := len(en.vals) - 1; t >= 0; t-- {
		k := int32(0)
		for x, a := range st.sharedAx {
			k = k*st.shDims[x] + en.crds[a][t]
		}
		next[t] = heads[k]
		//d2t2:ignore coordwidth t indexes a tile entry list whose length is bounded by the int32 tile volume; this is the innermost join loop
		heads[k] = int32(t) + 1
	}
}

// flushTile closes an output-tile scope: the touched cells' CSF
// footprint charged to the output traffic through the walker's own
// routine (Traffic.addOutputTile).
func (s *engineState) flushTile() {
	if len(s.touched) == 0 {
		return
	}
	host := s.p.host
	ord := s.ord[:0]
	for _, idx := range s.touched {
		ord = append(ord, host.outLay.levelKey(uint64(idx)))
	}
	s.ord = ord
	s.traffic.addOutputTile(host.outLay, ord, &host.opts)
}

// mergeInto folds this worker's counters into the host runner — exact
// integer sums per counter and per occurrence, plus the disjoint-key
// collect merge.
func (s *engineState) mergeInto(r *runner) {
	for ri := range s.inputWords {
		if w := s.inputWords[ri]; w != 0 {
			r.traffic.Input[s.p.refs[ri].name] += w
		}
	}
	r.traffic.Output += s.traffic.Output
	r.traffic.OutputWrites += s.traffic.OutputWrites
	r.traffic.TileIterations += s.traffic.TileIterations
	r.traffic.MACs += s.traffic.MACs
	r.traffic.OutputNNZ += s.traffic.OutputNNZ
	r.traffic.InputFetches += s.traffic.InputFetches
	r.traffic.OverflowFetches += s.traffic.OverflowFetches
	r.traffic.OutputOverflows += s.traffic.OutputOverflows
	if r.collect != nil {
		for k, v := range s.collect {
			r.collect[k] += v
		}
	}
}
