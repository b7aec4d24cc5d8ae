package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"sync"
	"time"

	"d2t2"
	"d2t2/internal/gen"
	"d2t2/internal/serve"
	"d2t2/internal/snapshot"
	"d2t2/internal/stats"
	"d2t2/internal/tensor"
)

// hotTile is the side of the dense square tile sizing the buffer of
// every optimize request in serve-hot and cluster-churn.
const hotTile = 64

// mixLen is the length of the precomputed request sequence the clients
// of serve-hot cycle through.
const mixLen = 4096

// uploadBody renders a tensor as the upload body d2t2d parses: Matrix
// Market for matrices, FROSTT .tns otherwise.
func uploadBody(t *tensor.COO) ([]byte, error) {
	var buf bytes.Buffer
	var err error
	if t.Order() == 2 {
		err = d2t2.FromCOO(t).ToMatrixMarket(&buf)
	} else {
		err = d2t2.FromCOO(t).ToTNS(&buf)
	}
	return buf.Bytes(), err
}

// pinDims adds an entry at the last coordinate of every axis when the
// tensor has none there, so a .tns upload (whose dims the parser infers
// from the largest coordinates) keeps the generated dims.
func pinDims(t *tensor.COO) *tensor.COO {
	last := make([]int, t.Order())
	for a, d := range t.Dims {
		last[a] = d - 1
	}
	for p := 0; p < t.NNZ(); p++ {
		same := true
		for a := range last {
			same = same && t.Crds[a][p] == last[a]
		}
		if same {
			return t
		}
	}
	t.Append(last, 1)
	t.Dedup()
	return t
}

// optimizeReq, predictReq and batchReq mirror d2t2d's request bodies.
type optimizeReq struct {
	Kernel      string            `json:"kernel"`
	Inputs      map[string]string `json:"inputs"`
	BufferWords int               `json:"bufferWords,omitempty"`
}

type predictReq struct {
	Kernel string            `json:"kernel"`
	Inputs map[string]string `json:"inputs"`
	Config map[string]int    `json:"config"`
}

type batchReq struct {
	Jobs []optimizeReq `json:"jobs"`
}

type optimizeResp struct {
	Config      map[string]int `json:"config"`
	PredictedMB float64        `json:"predictedMB"`
}

type statsResp struct {
	SizeTile  float64   `json:"sizeTile"`
	MaxTile   int       `json:"maxTile"`
	NumTiles  int       `json:"numTiles"`
	PrTileIdx []float64 `json:"prTileIdx"`
	ProbIndex []float64 `json:"probIndex"`
	CorrSums  []float64 `json:"corrSums"`
}

// hotJob is an optimize or predict job over named generated tensors.
type hotJob struct {
	kernel *d2t2.Kernel
	inputs map[string]string // operand -> tensor name
	config map[string]int    // predict only
}

// hotReq is one distinct request of the serve-hot mix.
type hotReq struct {
	kind   string // optimize, predict, stats, batch
	jobs   []hotJob
	tensor string // stats only

	method, path string
	body         []byte
}

type hotBench struct {
	tensors map[string]*tensor.COO
	ids     map[string]string
	reqs    []*hotReq
	seq     []int
	node    *node
	client  *httpClient
	buffer  int

	mu    sync.Mutex
	first map[int][]byte // request index -> body of its first hit
	bad   error

	m0 map[string]int64 // server counters at the start of the timed phase
}

// hotTensors generates serve-hot's operands from seed.
func hotTensors(seed int64) map[string]*tensor.COO {
	rng := func(k int64) *rand.Rand { return rand.New(rand.NewSource(seed*2003 + k)) }
	return map[string]*tensor.COO{
		"P":  gen.PowerLawGraph(rng(1), 4096, 30000, 1.6),
		"U":  gen.UniformRandom(rng(2), 4096, 4096, 30000),
		"T":  pinDims(gen.RandomTensor3(rng(3), 128, 128, 128, 30000, [3]float64{0.5, 1, 0.5})),
		"F":  gen.UniformRandom(rng(4), 32, 128, 1024),
		"SA": gen.UniformRandom(rng(5), 4096, 32, 16384),
		"SB": gen.UniformRandom(rng(6), 32, 4096, 16384),
	}
}

func hotRequests() []*hotReq {
	ikj := func(a, b string) hotJob {
		return hotJob{kernel: d2t2.Gustavson(), inputs: map[string]string{"A": a, "B": b}}
	}
	ijk := hotJob{kernel: d2t2.InnerProduct(), inputs: map[string]string{"A": "P", "B": "U"}}
	ttm := hotJob{kernel: d2t2.TTM(), inputs: map[string]string{"C": "T", "B": "F"}}
	sddmm := hotJob{kernel: d2t2.SDDMM(), inputs: map[string]string{"S": "P", "A": "SA", "B": "SB"}}
	withCfg := func(j hotJob, cfg map[string]int) hotJob { j.config = cfg; return j }
	opt := func(j hotJob) *hotReq { return &hotReq{kind: "optimize", jobs: []hotJob{j}} }
	pred := func(j hotJob) *hotReq { return &hotReq{kind: "predict", jobs: []hotJob{j}} }
	// Listed from most to least popular (see zipfSeq). The one stats
	// query, far slower than the hits around it, is second, at about 16%
	// of the mix, so the 90th percentile falls inside its latencies
	// rather than on the edge between two kinds of request.
	return []*hotReq{
		opt(ikj("P", "U")),
		{kind: "stats", tensor: "P"},
		pred(withCfg(ikj("P", "U"), map[string]int{"i": 64, "k": 64, "j": 64})),
		opt(ttm),
		{kind: "batch", jobs: []hotJob{ikj("U", "P"), ijk, sddmm}},
		opt(sddmm),
		pred(withCfg(ttm, map[string]int{"i": 16, "j": 16, "l": 16, "k": 16})),
		opt(ijk),
		// No predict of a three-operand kernel: its predicted traffic is
		// a map-order float sum that differs in the last digit from call
		// to call, so it cannot be checked against an in-process run.
		pred(withCfg(ijk, map[string]int{"i": 64, "j": 64, "k": 32})),
		opt(ikj("U", "P")),
		{kind: "batch", jobs: []hotJob{ikj("P", "U"), ttm}},
		pred(withCfg(ikj("P", "U"), map[string]int{"i": 128, "k": 32, "j": 64})),
		opt(ikj("U", "U")),
	}
}

// zipfSeq builds the request sequence: request r (in popularity order)
// appears in proportion to 1/(r+1)^1.1, a Zipf law, with counts fixed
// so every seed sends the same mix; the seed only shuffles the order.
func zipfSeq(seed int64, n int) []int {
	w := make([]float64, n)
	total := 0.0
	for r := range w {
		w[r] = math.Pow(float64(r+1), -1.1)
		total += w[r]
	}
	seq := make([]int, 0, mixLen)
	for r := n - 1; r >= 1; r-- {
		for c := int(math.Round(mixLen * w[r] / total)); c > 0; c-- {
			seq = append(seq, r)
		}
	}
	for len(seq) < mixLen {
		seq = append(seq, 0)
	}
	rng := rand.New(rand.NewSource(seed*3001 + 7))
	rng.Shuffle(len(seq), func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
	return seq
}

func setupServeHot(ctx context.Context, seed int64, tr *tracer) (bench, error) {
	b := &hotBench{
		tensors: hotTensors(seed),
		ids:     map[string]string{},
		buffer:  d2t2.DenseTileWords(hotTile, hotTile),
		client:  newHTTPClient(2),
		first:   map[int][]byte{},
	}
	b.reqs = hotRequests()
	b.seq = zipfSeq(seed, len(b.reqs))
	nodes, err := startNodes(1, func(int, []string) serve.Config {
		return serve.Config{Workers: runtime.NumCPU()}
	}, func(_ int, h http.Handler) http.Handler { return traceHandler(tr, "serve.handler", nil, h) })
	if err != nil {
		return nil, err
	}
	b.node = nodes[0]
	if err := b.upload(ctx); err != nil {
		b.close()
		return nil, err
	}
	// Warm every key: the first send of each request computes and
	// caches; the second is a hit whose bytes every later hit must repeat.
	for pass := 0; pass < 2; pass++ {
		for i := range b.reqs {
			data, err := b.send(ctx, i, 0)
			if err != nil {
				b.close()
				return nil, fmt.Errorf("warm request %d: %w", i, err)
			}
			if pass == 1 {
				b.first[i] = data
			}
		}
	}
	b.startCounters()
	return b, nil
}

// upload sends every generated tensor to the node and records its id.
func (b *hotBench) upload(ctx context.Context) error {
	for _, name := range sortedKeys(b.tensors) {
		t := b.tensors[name]
		body, err := uploadBody(t)
		if err != nil {
			return err
		}
		data, err := b.client.do(ctx, "POST", b.node.url+"/v1/tensors", "text/plain", body, 0)
		if err != nil {
			return fmt.Errorf("upload %s: %w", name, err)
		}
		var ir ingestResp
		if err := json.Unmarshal(data, &ir); err != nil {
			return fmt.Errorf("upload %s: %w", name, err)
		}
		if err := ir.matches(t); err != nil {
			return fmt.Errorf("upload %s: %w", name, err)
		}
		b.ids[name] = ir.ID
	}
	for _, r := range b.reqs {
		r.method, r.path, r.body = "POST", "/v1/"+r.kind, nil
		switch r.kind {
		case "optimize":
			r.body, _ = json.Marshal(b.optimizeReq(r.jobs[0]))
		case "predict":
			j := r.jobs[0]
			r.body, _ = json.Marshal(predictReq{Kernel: j.kernel.String(), Inputs: b.idsOf(j), Config: j.config})
		case "batch":
			var br batchReq
			for _, j := range r.jobs {
				br.Jobs = append(br.Jobs, b.optimizeReq(j))
			}
			r.body, _ = json.Marshal(br)
		case "stats":
			r.method, r.path = "GET", "/v1/tensors/"+b.ids[r.tensor]+"/stats"
		}
	}
	return nil
}

func (b *hotBench) idsOf(j hotJob) map[string]string {
	m := map[string]string{}
	for op, name := range j.inputs {
		m[op] = b.ids[name]
	}
	return m
}

func (b *hotBench) optimizeReq(j hotJob) optimizeReq {
	return optimizeReq{Kernel: j.kernel.String(), Inputs: b.idsOf(j), BufferWords: b.buffer}
}

func (b *hotBench) inputsOf(j hotJob) d2t2.Inputs {
	in := d2t2.Inputs{}
	for op, name := range j.inputs {
		in[op] = d2t2.FromCOO(b.tensors[name])
	}
	return in
}

// send issues request i. Once a request has a recorded first response,
// every later response must carry the same bytes.
func (b *hotBench) send(ctx context.Context, i int, span spanRef) ([]byte, error) {
	r := b.reqs[i]
	ctype := ""
	if r.body != nil {
		ctype = "application/json"
	}
	data, err := b.client.do(ctx, r.method, b.node.url+r.path, ctype, r.body, span)
	if err != nil {
		return nil, err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if want, ok := b.first[i]; ok && !bytes.Equal(want, data) && b.bad == nil {
		b.bad = fmt.Errorf("request %d (%s %s): a hit returned %q, the first hit %q", i, r.method, r.path, data, want)
	}
	return data, nil
}

// clients is one: with one closed-loop client per core, client, server
// and collector goroutines oversubscribe the cores, and interleaved
// 10-second runs of one seed on a 2-core machine spread 19% in
// throughput and 46% in the 90th percentile, against 6% and 15% with
// one client.
func (b *hotBench) clients() int  { return 1 }
func (b *hotBench) roundLen() int { return 64 }

func (b *hotBench) prepare(int) error { return nil }

func (b *hotBench) op(ctx context.Context, _, n int, tr *tracer, op spanRef) error {
	var span spanRef
	if tr.traced(op) {
		span = op
	}
	_, err := b.send(ctx, b.seq[n%mixLen], span)
	return err
}

func (b *hotBench) close() {
	if b.node != nil {
		closeNodes([]*node{b.node})
	}
	b.client.close()
}

// optimizeJobs lists every distinct optimize job of the mix with the
// config the node returned for it (from the recorded first responses).
func (b *hotBench) optimizeJobs() ([]hotJob, []map[string]int, error) {
	var jobs []hotJob
	var cfgs []map[string]int
	seen := map[string]bool{}
	add := func(j hotJob, body []byte) error {
		var or optimizeResp
		if err := json.Unmarshal(body, &or); err != nil {
			return err
		}
		key := j.kernel.String() + fmt.Sprint(j.inputs)
		if !seen[key] {
			seen[key] = true
			jobs = append(jobs, j)
			cfgs = append(cfgs, or.Config)
		}
		return nil
	}
	for i, r := range b.reqs {
		switch r.kind {
		case "optimize":
			if err := add(r.jobs[0], b.first[i]); err != nil {
				return nil, nil, err
			}
		case "batch":
			var br struct {
				Jobs []struct {
					Response json.RawMessage `json:"response"`
					Error    string          `json:"error"`
				} `json:"jobs"`
			}
			if err := json.Unmarshal(b.first[i], &br); err != nil {
				return nil, nil, err
			}
			if len(br.Jobs) != len(r.jobs) {
				return nil, nil, fmt.Errorf("batch %d: %d results for %d jobs", i, len(br.Jobs), len(r.jobs))
			}
			for x, j := range r.jobs {
				if br.Jobs[x].Error != "" {
					return nil, nil, fmt.Errorf("batch %d job %d: %s", i, x, br.Jobs[x].Error)
				}
				if err := add(j, br.Jobs[x].Response); err != nil {
					return nil, nil, err
				}
			}
		}
	}
	return jobs, cfgs, nil
}

func (b *hotBench) planTrafficMB(ctx context.Context) (float64, error) {
	jobs, cfgs, err := b.optimizeJobs()
	if err != nil {
		return 0, err
	}
	total := 0.0
	for x, j := range jobs {
		r, err := d2t2.MeasureConfig(j.kernel, b.inputsOf(j), cfgs[x])
		if err != nil {
			return 0, err
		}
		total += r.TotalMB()
	}
	return total, nil
}

// check compares every returned config, prediction and statistics
// summary with the same computation run in process on the generated
// tensors.
func (b *hotBench) check(ctx context.Context) error {
	b.mu.Lock()
	bad := b.bad
	b.mu.Unlock()
	if bad != nil {
		return bad
	}
	jobs, cfgs, err := b.optimizeJobs()
	if err != nil {
		return err
	}
	for x, j := range jobs {
		p, err := d2t2.OptimizeCtx(ctx, j.kernel, b.inputsOf(j), d2t2.Options{BufferWords: b.buffer})
		if err != nil {
			return err
		}
		if !sameConfig(p.Config, cfgs[x]) {
			return fmt.Errorf("%s on %v: node returned %v, in-process Optimize %v", j.kernel, j.inputs, cfgs[x], p.Config)
		}
	}
	for i, r := range b.reqs {
		switch r.kind {
		case "predict":
			j := r.jobs[0]
			var pr optimizeResp
			if err := json.Unmarshal(b.first[i], &pr); err != nil {
				return err
			}
			want, err := d2t2.PredictConfig(j.kernel, b.inputsOf(j), j.config, serveStatsTile)
			if err != nil {
				return err
			}
			if pr.PredictedMB != want {
				return fmt.Errorf("predict %d: node %v MB, in process %v MB", i, pr.PredictedMB, want)
			}
		case "stats":
			var sr statsResp
			if err := json.Unmarshal(b.first[i], &sr); err != nil {
				return err
			}
			want, err := d2t2.CollectStats(d2t2.FromCOO(b.tensors[r.tensor]), serveStatsTile)
			if err != nil {
				return err
			}
			if err := sr.matches(want); err != nil {
				return fmt.Errorf("stats of %s: %w", r.tensor, err)
			}
		}
	}
	return nil
}

func (b *hotBench) layers(ctx context.Context, tr *tracer, m metricSet) error {
	// Handler time without a socket: the mix's requests served straight
	// through Handler().ServeHTTP into a recorder.
	h := b.node.srv.Handler()
	var hd []time.Duration
	for n := 0; n < 512; n++ {
		r := b.reqs[b.seq[n]]
		req := httptest.NewRequest(r.method, r.path, bytes.NewReader(r.body))
		if r.body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		rec := httptest.NewRecorder()
		d, _ := tr.timeRoot("serve.handler_nosocket", "", func() error {
			h.ServeHTTP(rec, req.WithContext(ctx))
			return nil
		})
		if rec.Code != http.StatusOK {
			return fmt.Errorf("%s %s without a socket: status %d", r.method, r.path, rec.Code)
		}
		hd = append(hd, d)
	}
	m.set("serve.handler_us", "us", medianOf(hd, us))
	// Transport: a traced request's client latency minus the time its
	// handler ran on the server side of the socket.
	m.set("serve.transport_us", "us", medianOf(tr.opSelfTimes(), us))
	hits := b.counterDelta("optimize_cache_hits") + b.counterDelta("predict_cache_hits") + b.counterDelta("batch_cache_hits")
	total := b.counterDelta("optimize_total") + b.counterDelta("predict_total") + b.counterDelta("batch_jobs_total")
	m.set("serve.cache_hit_share", "share", float64(hits)/float64(max(total, 1)))

	const reps = 2000
	canon := b.reqs[0].body
	d, _ := tr.timeRoot("snapshot.response_key", "", func() error {
		for i := 0; i < reps; i++ {
			snapshot.ResponseKey("optimize", canon)
		}
		return nil
	})
	m.set("snapshot.response_key_us", "us", us(d)/reps)
	// A stats query loads its tensor's statistics artifact (statistics
	// plus the conservative tiling) from the store and decodes it; the
	// probe decodes the one the node keeps for the most popular query.
	p := b.tensors["P"]
	st, tt, err := stats.Collect(p, []int{serveStatsTile, serveStatsTile}, []int{0, 1}, &stats.Options{MicroDiv: 8})
	if err != nil {
		return err
	}
	statsArt, err := snapshot.EncodeBytes(&snapshot.Artifact{Stats: st, Tiled: tt})
	if err != nil {
		return err
	}
	const decodes = 100
	d, err = tr.timeRoot("snapshot.decode", "", func() error {
		for i := 0; i < decodes; i++ {
			if _, err := snapshot.DecodeBytes(statsArt); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	m.set("snapshot.decode_ms", "ms", ms(d)/decodes)
	art, err := snapshot.EncodeBytes(&snapshot.Artifact{Response: b.first[0]})
	if err != nil {
		return err
	}
	store, err := serve.NewStore("", 64<<20)
	if err != nil {
		return err
	}
	key := snapshot.ResponseKey("optimize", canon)
	if err := store.Put(key, art); err != nil {
		return err
	}
	d, err = tr.timeRoot("store.get", "", func() error {
		for i := 0; i < reps; i++ {
			if _, _, err := store.Get(key); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	m.set("store.get_us", "us", us(d)/reps)
	return nil
}

// startCounters snapshots the node's counters; counterDelta reads a
// counter's growth since.
func (b *hotBench) startCounters() {
	b.m0 = map[string]int64{}
	for _, c := range []string{"optimize_cache_hits", "predict_cache_hits", "batch_cache_hits", "optimize_total", "predict_total", "batch_jobs_total"} {
		b.m0[c] = b.node.srv.Metric(c)
	}
}

func (b *hotBench) counterDelta(name string) int64 { return b.node.srv.Metric(name) - b.m0[name] }

// serveStatsTile is d2t2d's default statistics tile (serve.Config's
// DefaultStatsTile), which predict and stats requests here rely on.
const serveStatsTile = 128

type ingestResp struct {
	ID   string `json:"id"`
	Dims []int  `json:"dims"`
	NNZ  int    `json:"nnz"`
}

// matches checks an upload's reported dims and nnz against the
// generated tensor.
func (ir *ingestResp) matches(t *tensor.COO) error {
	if ir.NNZ != t.NNZ() || fmt.Sprint(ir.Dims) != fmt.Sprint(t.Dims) {
		return fmt.Errorf("node reports dims %v nnz %d, generated dims %v nnz %d", ir.Dims, ir.NNZ, t.Dims, t.NNZ())
	}
	return nil
}

func (sr *statsResp) matches(w *d2t2.StatsSummary) error {
	eq := func(a, b []float64) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] && !(math.IsNaN(a[i]) && math.IsNaN(b[i])) {
				return false
			}
		}
		return true
	}
	if sr.SizeTile != w.SizeTile || sr.MaxTile != w.MaxTile || sr.NumTiles != w.NumTiles ||
		!eq(sr.PrTileIdx, w.PrTileIdx) || !eq(sr.ProbIndex, w.ProbIndex) || !eq(sr.CorrSums, w.CorrSums) {
		return fmt.Errorf("node summary %+v differs from in-process %+v", *sr, *w)
	}
	return nil
}

func sameConfig(a d2t2.TileConfig, b map[string]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
