package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// tracer keeps the spans of a traced run in memory; writeFile dumps
// them as JSON lines when the run ends. A span has a name, an optional
// tag (the kernel), a start, an end, a parent and an operation id.
// Operation spans of untraced rounds are kept too (for the same-run
// overhead comparison) but record no children. A nil *tracer records
// nothing.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

type span struct {
	Name   string        `json:"name"`
	Tag    string        `json:"tag,omitempty"`
	Op     int64         `json:"op"`
	Parent int           `json:"parent"` // index of the parent span, -1 for a root
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Traced bool          `json:"traced"`
}

// spanRef names a recorded span; the zero value is "no span".
type spanRef int

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) add(s span) spanRef {
	t.mu.Lock()
	defer t.mu.Unlock()
	s.Start = time.Since(t.t0)
	t.spans = append(t.spans, s)
	return spanRef(len(t.spans))
}

// startOp opens the span of operation op; children are recorded under
// it only when traced is set.
func (t *tracer) startOp(op int64, traced bool) spanRef {
	return t.add(span{Name: "op", Op: op, Parent: -1, Traced: traced})
}

// startRoot opens a traced span that belongs to no operation: a layer
// probe the benchmark runs beside the timed operations.
func (t *tracer) startRoot(name, tag string) spanRef {
	if t == nil {
		return 0
	}
	return t.add(span{Name: name, Tag: tag, Op: -1, Parent: -1, Traced: true})
}

// start opens a child span of parent; it records nothing when parent is
// not a traced span.
func (t *tracer) start(parent spanRef, name, tag string) spanRef {
	if t == nil || parent == 0 {
		return 0
	}
	t.mu.Lock()
	p := t.spans[parent-1]
	t.mu.Unlock()
	if !p.Traced {
		return 0
	}
	return t.add(span{Name: name, Tag: tag, Op: p.Op, Parent: int(parent) - 1, Traced: true})
}

func (t *tracer) end(s spanRef) {
	if t == nil || s == 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[s-1].End = now
	t.mu.Unlock()
}

// traced reports whether children of s are recorded.
func (t *tracer) traced(s spanRef) bool {
	if t == nil || s == 0 {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[s-1].Traced
}

// do runs fn inside a child span of parent.
func (t *tracer) do(parent spanRef, name, tag string, fn func() error) error {
	s := t.start(parent, name, tag)
	err := fn()
	t.end(s)
	return err
}

// timeRoot runs fn inside a probe span and returns its duration.
func (t *tracer) timeRoot(name, tag string, fn func() error) (time.Duration, error) {
	s := t.startRoot(name, tag)
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	t.end(s)
	return d, err
}

// perOp sums the self times of the spans named name and tagged tag
// within each operation, and returns one total per operation that has
// any; spans outside operations count one by one.
func (t *tracer) perOp(name, tag string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := t.childIndex()
	sums := map[int64]time.Duration{}
	var ops []int64
	var out []time.Duration
	for i, s := range t.spans {
		if s.Name != name || s.Tag != tag {
			continue
		}
		d := s.End - s.Start - t.covered(i, children[i])
		if s.Op < 0 {
			out = append(out, d)
			continue
		}
		if _, ok := sums[s.Op]; !ok {
			ops = append(ops, s.Op)
		}
		sums[s.Op] += d
	}
	for _, op := range ops {
		out = append(out, sums[op])
	}
	return out
}

func (t *tracer) childIndex() map[int][]int {
	ch := map[int][]int{}
	for i, s := range t.spans {
		if s.Parent >= 0 {
			ch[s.Parent] = append(ch[s.Parent], i)
		}
	}
	return ch
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func (t *tracer) covered(parent int, kids []int) time.Duration {
	p := t.spans[parent]
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		s, e := max(t.spans[k].Start, p.Start), min(t.spans[k].End, p.End)
		if e > s {
			iv = append(iv, [2]time.Duration{s, e})
		}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, curS, curE time.Duration
	for i, x := range iv {
		if i == 0 || x[0] > curE {
			total += curE - curS
			curS, curE = x[0], x[1]
		} else if x[1] > curE {
			curE = x[1]
		}
	}
	return total + curE - curS
}

// opSelfTimes returns, for every traced operation, the part of its
// wall time that no layer span covers.
func (t *tracer) opSelfTimes() []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := t.childIndex()
	var out []time.Duration
	for i, s := range t.spans {
		if s.Name == "op" && s.Parent < 0 && s.Traced {
			out = append(out, s.End-s.Start-t.covered(i, children[i]))
		}
	}
	return out
}

// opLatencies splits the operation spans into untraced and traced.
func (t *tracer) opLatencies() (untraced, traced []time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if s.Name != "op" || s.Parent >= 0 {
			continue
		}
		if s.Traced {
			traced = append(traced, s.End-s.Start)
		} else {
			untraced = append(untraced, s.End-s.Start)
		}
	}
	return untraced, traced
}

// coverage is the median, over traced operations, of the share of the
// operation's wall time that its layer spans cover.
func (t *tracer) coverage() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := t.childIndex()
	var shares []float64
	for i, s := range t.spans {
		if s.Name != "op" || !s.Traced || s.Parent >= 0 || s.End <= s.Start {
			continue
		}
		shares = append(shares, float64(t.covered(i, children[i]))/float64(s.End-s.Start))
	}
	return median(shares)
}

func (t *tracer) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// medianOf is the median of d converted by unit.
func medianOf(d []time.Duration, unit func(time.Duration) float64) float64 {
	v := make([]float64, len(d))
	for i, x := range d {
		v[i] = unit(x)
	}
	return median(v)
}
