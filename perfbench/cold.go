package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"d2t2"
	"d2t2/internal/einsum"
	"d2t2/internal/exec"
	"d2t2/internal/gen"
	"d2t2/internal/model"
	"d2t2/internal/optimizer"
	"d2t2/internal/par"
	"d2t2/internal/stats"
	"d2t2/internal/tensor"
	"d2t2/internal/tiling"
)

// coldTile is the side of the dense square tile the buffer holds.
const coldTile = 64

// kernelCase is one kernel with its generated operands.
type kernelCase struct {
	name   string
	kernel *d2t2.Kernel
	expr   *einsum.Expr
	coo    map[string]*tensor.COO
	inputs d2t2.Inputs
	ref    func(in map[string]*refTensor, tiles map[string]int) *refResult
}

// coldCases generates the five cold-kernels inputs from seed. Every
// operand is drawn from its own stream, so the inputs of one kernel do
// not depend on another's.
func coldCases(seed int64) []*kernelCase {
	rng := func(k int64) *rand.Rand { return rand.New(rand.NewSource(seed*1009 + k)) }
	skew := [3]float64{0.5, 1, 0.5}
	cases := []*kernelCase{
		{
			name: "spmspm-ikj", kernel: d2t2.Gustavson(), expr: einsum.SpMSpMIKJ(),
			coo: map[string]*tensor.COO{
				"A": gen.PowerLawGraph(rng(1), 16384, 100000, 1.6),
				"B": gen.UniformRandom(rng(2), 16384, 16384, 60000),
			},
			ref: func(in map[string]*refTensor, _ map[string]int) *refResult { return refSpMSpMIKJ(in["A"], in["B"]) },
		},
		{
			name: "spmspm-ijk", kernel: d2t2.InnerProduct(), expr: einsum.SpMSpMIJK(),
			coo: map[string]*tensor.COO{
				"A": gen.UniformRandom(rng(3), 8192, 8192, 100000),
				"B": gen.PowerLawGraph(rng(4), 8192, 40000, 1.6),
			},
			ref: func(in map[string]*refTensor, _ map[string]int) *refResult { return refSpMSpMIJK(in["A"], in["B"]) },
		},
		{
			name: "ttm", kernel: d2t2.TTM(), expr: einsum.TTM(),
			coo: map[string]*tensor.COO{
				"C": gen.RandomTensor3(rng(5), 256, 256, 256, 100000, skew),
				"B": gen.UniformRandom(rng(6), 64, 256, 2048),
			},
			ref: func(in map[string]*refTensor, _ map[string]int) *refResult { return refTTM(in["C"], in["B"]) },
		},
		{
			name: "mttkrp3", kernel: d2t2.MTTKRP(), expr: einsum.MTTKRP3(),
			coo: map[string]*tensor.COO{
				"A": gen.RandomTensor3(rng(7), 256, 256, 256, 100000, skew),
				"B": gen.UniformRandom(rng(8), 32, 256, 2048),
				"C": gen.UniformRandom(rng(9), 32, 256, 2048),
			},
			ref: func(in map[string]*refTensor, tiles map[string]int) *refResult {
				return refMTTKRP3(in["A"], in["B"], in["C"], tiles)
			},
		},
		{
			name: "sddmm", kernel: d2t2.SDDMM(), expr: einsum.SDDMM(),
			coo: map[string]*tensor.COO{
				"S": gen.PowerLawGraph(rng(10), 8192, 100000, 1.6),
				"A": gen.UniformRandom(rng(11), 8192, 64, 65536),
				"B": gen.UniformRandom(rng(12), 64, 8192, 65536),
			},
			ref: func(in map[string]*refTensor, tiles map[string]int) *refResult {
				return refSDDMM(in["S"], in["A"], in["B"], tiles)
			},
		},
	}
	for _, c := range cases {
		c.inputs = d2t2.Inputs{}
		for name, t := range c.coo {
			c.inputs[name] = d2t2.FromCOO(t)
		}
	}
	return cases
}

func toRef(t *tensor.COO) *refTensor {
	r := &refTensor{dims: append([]int(nil), t.Dims...), val: append([]float64(nil), t.Vals...)}
	r.crd = make([][]int, t.NNZ())
	for p := range r.crd {
		c := make([]int, t.Order())
		for a := range c {
			c[a] = t.Crds[a][p]
		}
		r.crd[p] = c
	}
	return r
}

// stagedResult is what a traced operation's staged pipeline produced.
type stagedResult struct {
	res     *optimizer.Result
	pred    *model.Predictor
	stats   map[string]*stats.Stats
	traffic exec.Traffic
	special bool
}

type coldBench struct {
	cases   []*kernelCase
	buffer  int
	workers int

	mu     sync.Mutex
	plans  map[string]*d2t2.Plan    // last one-shot plan per kernel
	staged map[string]*stagedResult // last staged result per kernel
}

func setupCold(ctx context.Context, seed int64, _ *tracer) (bench, error) {
	return &coldBench{
		cases:   coldCases(seed),
		buffer:  d2t2.DenseTileWords(coldTile, coldTile),
		workers: runtime.NumCPU(),
		plans:   map[string]*d2t2.Plan{},
		staged:  map[string]*stagedResult{},
	}, nil
}

func (b *coldBench) clients() int  { return 1 }
func (b *coldBench) roundLen() int { return len(b.cases) }
func (b *coldBench) close()        {}

func (b *coldBench) prepare(int) error { return nil }

func (b *coldBench) options(workers int) d2t2.Options {
	return d2t2.Options{BufferWords: b.buffer, Workers: workers}
}

func (b *coldBench) op(ctx context.Context, _, n int, tr *tracer, op spanRef) error {
	kc := b.cases[n%len(b.cases)]
	if tr.traced(op) {
		sr, err := b.staged1(ctx, kc, tr, op)
		if err != nil {
			return err
		}
		b.mu.Lock()
		b.staged[kc.name] = sr
		b.mu.Unlock()
		return nil
	}
	plan, err := d2t2.OptimizeCtx(ctx, kc.kernel, kc.inputs, b.options(b.workers))
	if err != nil {
		return fmt.Errorf("%s optimize: %w", kc.name, err)
	}
	if _, err := plan.MeasureCtx(ctx); err != nil {
		return fmt.Errorf("%s measure: %w", kc.name, err)
	}
	b.mu.Lock()
	b.plans[kc.name] = plan
	b.mu.Unlock()
	return nil
}

// staged1 runs the cold pipeline stage by stage, one span per call into
// a layer: conservative tiling, statistics collection, model build, the
// optimizer's sweep and growth on the precollected statistics, the
// final retiling and the exec measurement.
func (b *coldBench) staged1(ctx context.Context, kc *kernelCase, tr *tracer, op spanRef) (*stagedResult, error) {
	e, w := kc.expr, b.workers
	o := optimizer.Options{BufferWords: b.buffer, Workers: w}
	base, err := o.ConservativeBase(e)
	if err != nil {
		return nil, err
	}
	sr := &stagedResult{stats: map[string]*stats.Stats{}}
	for _, ref := range e.Inputs() {
		if sr.stats[ref.Name] != nil {
			continue
		}
		dims := make([]int, len(ref.Indices))
		for a := range dims {
			dims[a] = base
		}
		var tt *tiling.TiledTensor
		if err := tr.do(op, "tiling.base", kc.name, func() (err error) {
			tt, err = tiling.NewCtx(ctx, kc.coo[ref.Name], dims, e.LevelOrder(ref), w)
			return err
		}); err != nil {
			return nil, err
		}
		if err := tr.do(op, "stats.collect", kc.name, func() (err error) {
			sr.stats[ref.Name], err = stats.CollectFromTiledCtx(ctx, kc.coo[ref.Name], tt, &stats.Options{MicroDiv: 8, Workers: w})
			return err
		}); err != nil {
			return nil, err
		}
	}
	if err := tr.do(op, "model.build", kc.name, func() (err error) {
		sr.pred, err = model.New(e, sr.stats)
		return err
	}); err != nil {
		return nil, err
	}
	o.Precollected = sr.stats
	if err := tr.do(op, "optimizer.sweep", kc.name, func() (err error) {
		sr.res, err = optimizer.OptimizeCtx(ctx, e, kc.coo, o)
		return err
	}); err != nil {
		return nil, err
	}
	var tiled map[string]*tiling.TiledTensor
	if err := tr.do(op, "tiling.retile", kc.name, func() (err error) {
		tiled, err = optimizer.TileAllCtx(ctx, e, kc.coo, sr.res.Config, w)
		return err
	}); err != nil {
		return nil, err
	}
	return sr, tr.do(op, "exec.measure", kc.name, func() error {
		r, err := exec.MeasureCtx(ctx, e, tiled, &exec.Options{Workers: par.Workers(w)})
		if err != nil {
			return err
		}
		sr.traffic, sr.special = r.Traffic, r.Specialized
		return nil
	})
}

// plan returns the run's one-shot plan for kc, optimizing afresh when
// the run obtained none (a traced run of one round).
func (b *coldBench) plan(ctx context.Context, kc *kernelCase) (*d2t2.Plan, error) {
	b.mu.Lock()
	p := b.plans[kc.name]
	b.mu.Unlock()
	if p != nil {
		return p, nil
	}
	p, err := d2t2.OptimizeCtx(ctx, kc.kernel, kc.inputs, b.options(b.workers))
	if err != nil {
		return nil, err
	}
	b.mu.Lock()
	b.plans[kc.name] = p
	b.mu.Unlock()
	return p, nil
}

func (b *coldBench) planTrafficMB(ctx context.Context) (float64, error) {
	total := 0.0
	for _, kc := range b.cases {
		p, err := b.plan(ctx, kc)
		if err != nil {
			return 0, err
		}
		r, err := p.MeasureCtx(ctx)
		if err != nil {
			return 0, err
		}
		total += r.TotalMB()
	}
	return total, nil
}

func (b *coldBench) check(ctx context.Context) error {
	for _, kc := range b.cases {
		if err := b.check1(ctx, kc); err != nil {
			return fmt.Errorf("%s: %w", kc.name, err)
		}
	}
	return nil
}

func (b *coldBench) check1(ctx context.Context, kc *kernelCase) error {
	p, err := b.plan(ctx, kc)
	if err != nil {
		return err
	}
	out, rep, err := p.Execute()
	if err != nil {
		return fmt.Errorf("execute: %w", err)
	}
	refIn := map[string]*refTensor{}
	for name, t := range kc.coo {
		refIn[name] = toRef(t)
	}
	ref := kc.ref(refIn, p.Config)
	oc := out.COO()
	crd := make([][]int, oc.NNZ())
	for q := range crd {
		crd[q] = oc.At(q)
	}
	if err := ref.compareOutput(crd, oc.Vals, 1e-9); err != nil {
		return fmt.Errorf("output differs from the reference kernel: %w", err)
	}
	wantMACs := ref.products + ref.partials
	if rep.MACs != wantMACs {
		return fmt.Errorf("MACs %d, reference counts %d products (%d full, %d partial)", rep.MACs, wantMACs, ref.products, ref.partials)
	}
	for name, used := range ref.used {
		if got := rep.InputWords[name]; got < int64(used) {
			return fmt.Errorf("input %s traffic %d words is below its compulsory footprint of %d participating entries", name, got, used)
		}
	}
	// The conservative plan must fit the buffer: measured under the
	// buffer model, no fetched input tile overflows.
	tiled, err := optimizer.TileAllCtx(ctx, kc.expr, kc.coo, model.Config(p.Config), b.workers)
	if err != nil {
		return err
	}
	r, err := exec.MeasureCtx(ctx, kc.expr, tiled, &exec.Options{InputBufferWords: b.buffer, Workers: par.Workers(b.workers)})
	if err != nil {
		return err
	}
	if r.OverflowFetches != 0 {
		return fmt.Errorf("conservative plan %v overflows the %d-word buffer on %d of %d fetches", p.Config, b.buffer, r.OverflowFetches, r.InputFetches)
	}
	b.mu.Lock()
	sr := b.staged[kc.name]
	b.mu.Unlock()
	if sr != nil {
		for ix, v := range p.Config {
			if sr.res.Config[ix] != v || len(sr.res.Config) != len(p.Config) {
				return fmt.Errorf("staged pipeline picked %v, one-shot OptimizeCtx %v", sr.res.Config, p.Config)
			}
		}
	}
	return nil
}

func (b *coldBench) layers(ctx context.Context, tr *tracer, m metricSet) error {
	var measured, special, macs, fetches, cands, relErr []float64
	var w1, wn time.Duration
	for _, kc := range b.cases {
		b.mu.Lock()
		sr := b.staged[kc.name]
		b.mu.Unlock()
		if sr == nil {
			return fmt.Errorf("%s: no traced operation ran", kc.name)
		}
		for _, l := range []struct{ span, metric string }{
			{"tiling.base", "tiling.base_ms"},
			{"stats.collect", "stats.collect_ms"},
			{"model.build", "model.build_ms"},
			{"optimizer.sweep", "optimizer.sweep_ms"},
			{"tiling.retile", "tiling.retile_ms"},
			{"exec.measure", "exec.measure_ms"},
		} {
			m.set(l.metric+"."+kc.name, "ms", medianOf(tr.perOp(l.span, kc.name), ms))
		}
		measuredW := float64(sr.traffic.Total())
		predW := sr.res.Predicted.Total()
		re := (predW - measuredW) / measuredW
		if re < 0 {
			re = -re
		}
		m.set("model.rel_error."+kc.name, "share", re)
		relErr = append(relErr, re)
		measured = append(measured, 1)
		if sr.special {
			special = append(special, 1)
		}
		macs = append(macs, float64(sr.traffic.MACs))
		fetches = append(fetches, float64(sr.traffic.InputFetches))
		cands = append(cands, float64(len(sr.res.Candidates)))

		// Probes beside the timed operations: the collector's micro
		// summary pass alone, collection without Corrs, one model
		// prediction, and the cold optimize at one worker and at all.
		e := kc.expr
		for _, ref := range e.Inputs() {
			st := sr.stats[ref.Name]
			micro := make([]int, len(st.BaseTileDims))
			for a, d := range st.BaseTileDims {
				micro[a] = max(d/8, 1)
			}
			if _, err := tr.timeRoot("tiling.summarize", kc.name, func() error {
				_, err := tiling.SummarizeCtx(ctx, kc.coo[ref.Name], micro, st.Order, b.workers)
				return err
			}); err != nil {
				return err
			}
			tt, err := tiling.NewCtx(ctx, kc.coo[ref.Name], st.BaseTileDims, st.Order, b.workers)
			if err != nil {
				return err
			}
			for _, probe := range []struct {
				name string
				axes []int // nil: Corrs on every axis; empty: none
			}{{"stats.collect_corrs", nil}, {"stats.collect_nocorrs", []int{}}} {
				if _, err := tr.timeRoot(probe.name, kc.name, func() error {
					_, err := stats.CollectFromTiledCtx(ctx, kc.coo[ref.Name], tt, &stats.Options{MicroDiv: 8, Workers: b.workers, CorrAxes: probe.axes})
					return err
				}); err != nil {
					return err
				}
			}
			break // the first operand is the largest one in every case
		}
		const predicts = 20
		d, err := tr.timeRoot("model.predict", kc.name, func() error {
			for i := 0; i < predicts; i++ {
				if _, err := sr.pred.Predict(sr.res.Config); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		m.set("model.predict_us."+kc.name, "us", us(d)/predicts)
		for _, workers := range []int{1, b.workers} {
			d, err := tr.timeRoot("par.optimize", fmt.Sprint(workers), func() error {
				_, err := d2t2.OptimizeCtx(ctx, kc.kernel, kc.inputs, b.options(workers))
				return err
			})
			if err != nil {
				return err
			}
			if workers == 1 {
				w1 += d
			} else {
				wn += d
			}
		}
	}
	// A layer's metric without a kernel suffix is the mean over the
	// kernels of the per-operation median.
	kernelMean := func(span string) float64 {
		var v []float64
		for _, kc := range b.cases {
			v = append(v, medianOf(tr.perOp(span, kc.name), ms))
		}
		return mean(v)
	}
	m.set("tiling.base_ms", "ms", kernelMean("tiling.base"))
	m.set("tiling.summarize_ms", "ms", kernelMean("tiling.summarize"))
	m.set("tiling.retile_ms", "ms", kernelMean("tiling.retile"))
	m.set("stats.collect_ms", "ms", kernelMean("stats.collect"))
	// Corrs cost: the first operand's collection with Corrs minus without.
	m.set("stats.corrs_ms", "ms", max(kernelMean("stats.collect_corrs")-kernelMean("stats.collect_nocorrs"), 0))
	m.set("model.build_ms", "ms", kernelMean("model.build"))
	var pu []float64
	for _, kc := range b.cases {
		pu = append(pu, m["model.predict_us."+kc.name].Value)
	}
	m.set("model.predict_us", "us", mean(pu))
	m.set("model.rel_error", "share", mean(relErr))
	m.set("optimizer.sweep_ms", "ms", kernelMean("optimizer.sweep"))
	m.set("optimizer.candidates", "count", mean(cands))
	m.set("exec.measure_ms", "ms", kernelMean("exec.measure"))
	m.set("exec.macs", "count", mean(macs))
	m.set("exec.input_fetches", "count", mean(fetches))
	m.set("exec.specialized_share", "share", float64(len(special))/float64(len(measured)))
	m.set("par.speedup", "ratio", w1.Seconds()/wn.Seconds())
	return nil
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}
