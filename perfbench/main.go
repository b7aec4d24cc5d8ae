// Command perfbench is the D2T2 benchmark: it runs one named workload
// from a seed for a fixed time, checks the program's outputs against
// independent computations, and prints every end-to-end metric (or,
// with --trace 1, every per-layer metric) as the last line of standard
// output, as one JSON object.
//
// Usage (from the repository root, see README.md):
//
//	bash perfbench/run.sh --workload cold-kernels --seed 1 --seconds 15 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"syscall"
	"time"
)

// setupRepeats is how many times a run builds its workload state; the
// reported setup_s is the median.
const setupRepeats = 5

// workload is one named benchmark scenario. setup builds fresh state
// from the seed; the returned bench is driven by the common runner.
type workload struct {
	name string
	// setup builds fresh state; tr is the run's tracer (nil untraced),
	// for workloads that record spans inside their servers.
	setup func(ctx context.Context, seed int64, tr *tracer) (bench, error)
}

// bench is a workload's built state.
type bench interface {
	// clients is the number of closed-loop client goroutines.
	clients() int
	// roundLen is the number of operations in one round; a run attempts
	// whole rounds only.
	roundLen() int
	// prepare makes operation n's inputs before the operation is timed.
	prepare(n int) error
	// op runs operation n on client c. With tracing on, it records its
	// layer spans under the operation span op.
	op(ctx context.Context, c, n int, tr *tracer, op spanRef) error
	// planTrafficMB measures, after the timed phase, the exact traffic of
	// the distinct plans the run obtained.
	planTrafficMB(ctx context.Context) (float64, error)
	// check verifies the outputs the run produced.
	check(ctx context.Context) error
	// layers adds the per-layer metrics of a traced run.
	layers(ctx context.Context, tr *tracer, m metricSet) error
	close()
}

var workloads = []workload{
	{"cold-kernels", setupCold},
	{"serve-hot", setupServeHot},
	{"cluster-churn", setupChurn},
}

func main() {
	name := flag.String("workload", "", "workload name: cold-kernels, serve-hot or cluster-churn")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer mode")
	flag.Parse()
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	rec := machineRecord()
	line, _ := json.Marshal(map[string]any{"machine": rec, "workload": w.name, "seed": *seed, "trace": *trace})
	fmt.Println(string(line))
	res, err := run(context.Background(), w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

func (m metricSet) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

type result struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// phase is what one timed phase measured.
type phase struct {
	ops, failed int
	wall        time.Duration
	lat         []time.Duration // per completed operation
	cpu         time.Duration
	allocBytes  uint64
	gcCycles    uint32
	gcPause     time.Duration
	firstErr    error
}

func run(ctx context.Context, w *workload, seed int64, dur time.Duration, traced bool) (*result, error) {
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	var b bench
	setups := make([]float64, 0, setupRepeats)
	for i := 0; i < setupRepeats; i++ {
		if b != nil {
			b.close()
			// Each set-up starts from a collected heap, so neither its time
			// nor the peak resident set depends on when the collector last
			// ran.
			runtime.GC()
			debug.FreeOSMemory()
		}
		t0 := time.Now()
		nb, err := w.setup(ctx, seed, tr)
		if err != nil {
			return nil, fmt.Errorf("%s setup: %w", w.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		b = nb
	}
	defer b.close()

	ph := timedPhase(ctx, b, dur, tr, 1)
	if ph.firstErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: first failed operation:", ph.firstErr)
	}
	correct := true
	if err := b.check(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", err)
		correct = false
	}
	res := &result{Correct: correct, Attempted: ph.ops, Failed: ph.failed, Metrics: metricSet{}}
	if ph.ops == 0 {
		return nil, fmt.Errorf("%s: no operation completed", w.name)
	}
	if !traced {
		mb, err := b.planTrafficMB(ctx)
		if err != nil {
			return nil, fmt.Errorf("%s plan traffic: %w", w.name, err)
		}
		done := ph.ops - ph.failed
		perOp := func(v float64) float64 { return v / float64(max(done, 1)) }
		var ru syscall.Rusage
		_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
		m := res.Metrics
		m.set("setup_s", "s", median(setups))
		m.set("ops_per_s", "ops/s", float64(done)/ph.wall.Seconds())
		m.set("op_p50_ms", "ms", ms(percentile(ph.lat, 50)))
		m.set("op_p90_ms", "ms", ms(percentile(ph.lat, 90)))
		m.set("plan_traffic_mb", "MB", mb)
		m.set("cpu_ms_per_op", "ms", perOp(ms(ph.cpu)))
		m.set("alloc_kb_per_op", "KiB", perOp(float64(ph.allocBytes)/1024))
		m.set("peak_rss_mb", "MB", float64(ru.Maxrss)/1024) // Linux reports KiB
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d ops (%d failed) in %.2fs, %d latency samples\n",
			w.name, seed, ph.ops, ph.failed, ph.wall.Seconds(), len(ph.lat))
		return res, nil
	}

	m := res.Metrics
	done := float64(max(ph.ops-ph.failed, 1))
	m.set("gc.cycles_per_op", "count", float64(ph.gcCycles)/done)
	m.set("gc.pause_ms_per_op", "ms", ms(ph.gcPause)/done)
	if err := b.layers(ctx, tr, m); err != nil {
		return nil, fmt.Errorf("%s layers: %w", w.name, err)
	}
	// Every traced run reports every layer: the layers this workload
	// does not exercise come from two traced rounds of the workloads
	// that do, on inputs from the same seed.
	for i := range workloads {
		o := &workloads[i]
		if o == w {
			continue
		}
		if err := briefLayers(ctx, o, seed, m); err != nil {
			return nil, fmt.Errorf("%s layers: %w", o.name, err)
		}
	}
	untraced, tracedOps := tr.opLatencies()
	m.set("trace.overhead_ms", "ms", ms(percentile(tracedOps, 50))-ms(percentile(untraced, 50)))
	m.set("trace.span_coverage", "share", tr.coverage())
	if err := tr.writeFile(fmt.Sprintf(".bench_build/trace-%s-%d.jsonl", w.name, seed)); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: trace file not written:", err)
	}
	return res, nil
}

// briefLayers runs two rounds of workload w, one untraced and one
// traced, and adds the per-layer metrics it reports that m lacks.
func briefLayers(ctx context.Context, w *workload, seed int64, m metricSet) error {
	tr := newTracer()
	b, err := w.setup(ctx, seed, tr)
	if err != nil {
		return err
	}
	defer b.close()
	if ph := timedPhase(ctx, b, 0, tr, 2); ph.failed > 0 {
		return ph.firstErr
	}
	mo := metricSet{}
	if err := b.layers(ctx, tr, mo); err != nil {
		return err
	}
	for k, v := range mo {
		if _, ok := m[k]; !ok {
			m[k] = v
		}
	}
	return nil
}

// timedPhase drives the bench's clients in a closed loop for dur, and
// for at least minRounds rounds. Each client claims the next operation
// number; once the deadline passes, no operation beyond the end of the
// current round is claimed, so a run attempts whole rounds only. With a
// tracer, odd rounds are traced and even rounds are not, so tracing
// overhead is a same-run comparison.
func timedPhase(ctx context.Context, b bench, dur time.Duration, tr *tracer, minRounds int) phase {
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := processCPU()
	start := time.Now()
	deadline := start.Add(dur)

	var mu sync.Mutex
	next, limit := 0, math.MaxInt
	rl := b.roundLen()
	claim := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if limit == math.MaxInt && !time.Now().Before(deadline) {
			limit = max((next+rl-1)/rl, minRounds) * rl
		}
		if next >= limit {
			return 0, false
		}
		n := next
		next++
		return n, true
	}
	var ph phase
	var wg sync.WaitGroup
	for c := 0; c < b.clients(); c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				n, ok := claim()
				if !ok {
					return
				}
				if err := b.prepare(n); err != nil {
					mu.Lock()
					ph.ops++
					ph.failed++
					if ph.firstErr == nil {
						ph.firstErr = fmt.Errorf("prepare op %d: %w", n, err)
					}
					mu.Unlock()
					continue
				}
				var op spanRef
				if tr != nil {
					op = tr.startOp(int64(n), (n/rl)%2 == 1)
				}
				t0 := time.Now()
				err := b.op(ctx, c, n, tr, op)
				d := time.Since(t0)
				if tr != nil {
					tr.end(op)
				}
				mu.Lock()
				ph.ops++
				if err != nil {
					ph.failed++
					if ph.firstErr == nil {
						ph.firstErr = fmt.Errorf("op %d: %w", n, err)
					}
				} else {
					ph.lat = append(ph.lat, d)
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	ph.wall = time.Since(start)
	ph.cpu = processCPU() - cpu0
	runtime.ReadMemStats(&ms1)
	ph.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	ph.gcCycles = ms1.NumGC - ms0.NumGC
	ph.gcPause = time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs)
	return ph
}

// processCPU is the process's user+system CPU time from getrusage.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// percentile is the nearest-rank p-th percentile.
func percentile(d []time.Duration, p float64) time.Duration {
	if len(d) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	return s[min(max(rank, 1), len(s))-1]
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
