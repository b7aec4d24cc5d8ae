package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"d2t2"
	"d2t2/internal/cluster"
	"d2t2/internal/gen"
	"d2t2/internal/serve"
	"d2t2/internal/snapshot"
	"d2t2/internal/tensor"
)

const (
	churnNodes    = 3
	churnSecret   = "perfbench-cluster"
	churnDim      = 2048
	churnBaseNNZ  = 60000
	churnNNZ      = 4000
	churnDeltaNNZ = 200
)

// churnPredictCfg is the tile configuration cluster-churn's predicts
// price.
var churnPredictCfg = map[string]int{"i": 64, "k": 64, "j": 64}

// churnOp is one prepared cluster-churn operation: its generated inputs
// and upload or delta body, made before the operation is timed.
type churnOp struct {
	n      int
	fresh  *tensor.COO // upload: the fresh tensor
	base   *churnOp    // delta: the operation whose tensor it extends
	delta  *tensor.COO // delta: the appended entries
	concat *tensor.COO // delta: base tensor plus delta, built in process
	body   []byte      // upload or delta request body

	id      string // the resulting tensor's id
	reqBody []byte // the optimize or predict request
	optim   bool
	body1   []byte // response at the second node
	touched float64
}

type churnBench struct {
	seed   int64
	nodes  []*node
	client *httpClient
	buffer int
	base   *tensor.COO
	baseID string
	cur    atomic.Int64 // the running traced operation's span, for peer requests

	mu      sync.Mutex
	prev    *churnOp
	next    *churnOp
	round0  []*churnOp // the first round's operations, kept for the checks
	planned []*churnOp // the optimizes of the first planRounds rounds
	bad     error
	m0      map[string]int64
	dir     string // the nodes' artifact cache directories
	touched []float64
	ops     int
}

func setupChurn(ctx context.Context, seed int64, tr *tracer) (bench, error) {
	b := &churnBench{
		seed:   seed,
		client: newHTTPClient(4),
		buffer: d2t2.DenseTileWords(hotTile, hotTile),
		base:   gen.UniformRandom(rand.New(rand.NewSource(seed*4001+1)), churnDim, churnDim, churnBaseNNZ),
	}
	// Each node keeps its artifacts on disk, as d2t2d does by default,
	// under a directory of the checkout that close removes.
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(".bench_build", "churn-")
	if err != nil {
		return nil, err
	}
	b.dir = dir
	nodes, err := startNodes(churnNodes, func(i int, urls []string) serve.Config {
		var peers []string
		for j, u := range urls {
			if j != i {
				peers = append(peers, u)
			}
		}
		return serve.Config{
			CacheDir:      filepath.Join(dir, fmt.Sprint(i)),
			Workers:       runtime.NumCPU(),
			MemCacheBytes: 8 << 20,
			Peers:         peers,
			SelfURL:       urls[i],
			ClusterSecret: churnSecret,
			Replication:   1,
			PeerTimeout:   20 * time.Second,
		}
	}, func(i int, h http.Handler) http.Handler {
		return traceHandler(tr, fmt.Sprintf("serve.node%d", i), &b.cur, h)
	})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	b.nodes = nodes
	// The shared right-hand operand goes to every node; each must give it
	// the same content address.
	body, err := uploadBody(b.base)
	if err != nil {
		b.close()
		return nil, err
	}
	for i := range b.nodes {
		ir, err := b.upload(ctx, i, body, b.base)
		if err != nil {
			b.close()
			return nil, err
		}
		if b.baseID != "" && ir.ID != b.baseID {
			b.close()
			return nil, fmt.Errorf("node %d gave the shared operand id %s, node 0 gave %s", i, ir.ID, b.baseID)
		}
		b.baseID = ir.ID
	}
	b.startCounters()
	return b, nil
}

func (b *churnBench) clients() int  { return 1 }
func (b *churnBench) roundLen() int { return 3 }

func (b *churnBench) close() {
	closeNodes(b.nodes)
	b.client.close()
	os.RemoveAll(b.dir)
}

func (b *churnBench) upload(ctx context.Context, node int, body []byte, want *tensor.COO) (*ingestResp, error) {
	data, err := b.client.do(ctx, "POST", b.nodes[node].url+"/v1/tensors", "text/plain", body, 0)
	if err != nil {
		return nil, err
	}
	var ir ingestResp
	if err := json.Unmarshal(data, &ir); err != nil {
		return nil, err
	}
	return &ir, ir.matches(want)
}

// prepare generates operation n's inputs. A round is three operations:
// upload a fresh power-law matrix and optimize, append a delta to it and
// predict, append another delta and optimize. Their latencies differ
// enough that the median falls inside the middle kind, not on the edge
// between two kinds. The single client runs operations in order, so the
// previous one has completed.
func (b *churnBench) prepare(n int) error {
	op, err := b.prepare1(n)
	b.mu.Lock()
	b.next = op
	b.mu.Unlock()
	return err
}

func (b *churnBench) prepare1(n int) (*churnOp, error) {
	r := rand.New(rand.NewSource(b.seed*4001 + 1000 + int64(n)))
	op := &churnOp{n: n, optim: n%3 != 1}
	if n%3 == 0 {
		op.fresh = gen.PowerLawGraph(r, churnDim, churnNNZ, 1.6)
		body, err := uploadBody(op.fresh)
		op.body = body
		return op, err
	}
	b.mu.Lock()
	op.base = b.prev
	b.mu.Unlock()
	old := op.base.tensor()
	taken := make(map[[2]int]bool, old.NNZ())
	for p := 0; p < old.NNZ(); p++ {
		taken[[2]int{old.Crds[0][p], old.Crds[1][p]}] = true
	}
	op.delta = tensor.New(churnDim, churnDim)
	var crds [][]int
	var vals []float64
	for len(vals) < churnDeltaNNZ {
		c := [2]int{r.Intn(churnDim), r.Intn(churnDim)}
		if taken[c] {
			continue
		}
		taken[c] = true
		v := 1 + r.Float64()
		op.delta.Append(c[:], v)
		crds = append(crds, []int{c[0], c[1]})
		vals = append(vals, v)
	}
	op.delta.Dedup()
	op.concat = old.Clone()
	for p := 0; p < op.delta.NNZ(); p++ {
		op.concat.Append(op.delta.At(p), op.delta.Vals[p])
	}
	op.concat.Dedup()
	body, err := json.Marshal(map[string]any{"crds": crds, "vals": vals})
	op.body = body
	return op, err
}

// tensor is the tensor the operation leaves on the cluster.
func (op *churnOp) tensor() *tensor.COO {
	if op.fresh != nil {
		return op.fresh
	}
	return op.concat
}

func (b *churnBench) op(ctx context.Context, _, n int, tr *tracer, span spanRef) error {
	b.mu.Lock()
	op := b.next
	b.mu.Unlock()
	if op == nil || op.n != n {
		return fmt.Errorf("operation %d was not prepared", n)
	}
	if tr.traced(span) {
		b.cur.Store(int64(span))
		defer b.cur.Store(0)
	}
	if err := b.run1(ctx, op); err != nil {
		return err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.prev = op
	b.ops++
	if n < b.roundLen() {
		b.round0 = append(b.round0, op)
	}
	if n < planRounds*b.roundLen() && op.optim {
		b.planned = append(b.planned, op)
	}
	if op.delta != nil {
		b.touched = append(b.touched, op.touched)
	}
	return nil
}

// run1 performs one operation: the write at one node, an optimize or
// predict on the result at the next, and a warm re-read at the third.
// The write node advances by one more each round, so every kind of
// operation visits every node.
func (b *churnBench) run1(ctx context.Context, op *churnOp) error {
	w := (op.n + op.n/3) % churnNodes
	q, rr := (w+1)%churnNodes, (w+2)%churnNodes
	if op.fresh != nil {
		ir, err := b.upload(ctx, w, op.body, op.fresh)
		if err != nil {
			return fmt.Errorf("upload: %w", err)
		}
		op.id = ir.ID
	} else {
		url := b.nodes[w].url + "/v1/tensors/" + op.base.id + "/delta"
		data, err := b.client.do(ctx, "POST", url, "application/json", op.body, 0)
		if err != nil {
			return fmt.Errorf("delta: %w", err)
		}
		var dr struct {
			ingestResp
			TouchedTiles int `json:"touchedTiles"`
			TotalTiles   int `json:"totalTiles"`
		}
		if err := json.Unmarshal(data, &dr); err != nil {
			return err
		}
		if err := dr.matches(op.concat); err != nil {
			b.fail(fmt.Errorf("op %d delta: %w", op.n, err))
		}
		op.id = dr.ID
		op.touched = float64(dr.TouchedTiles) / float64(max(dr.TotalTiles, 1))
	}
	inputs := map[string]string{"A": op.id, "B": b.baseID}
	kernel := d2t2.Gustavson().String()
	endpoint := "/v1/predict"
	var err error
	if op.optim {
		endpoint = "/v1/optimize"
		op.reqBody, err = json.Marshal(optimizeReq{Kernel: kernel, Inputs: inputs, BufferWords: b.buffer})
	} else {
		op.reqBody, err = json.Marshal(predictReq{Kernel: kernel, Inputs: inputs, Config: churnPredictCfg})
	}
	if err != nil {
		return err
	}
	body1, err := b.client.do(ctx, "POST", b.nodes[q].url+endpoint, "application/json", op.reqBody, 0)
	if err != nil {
		return fmt.Errorf("%s at node %d: %w", endpoint, q, err)
	}
	op.body1 = body1
	body2, err := b.client.do(ctx, "POST", b.nodes[rr].url+endpoint, "application/json", op.reqBody, 0)
	if err != nil {
		return fmt.Errorf("%s re-read at node %d: %w", endpoint, rr, err)
	}
	if !bytes.Equal(body1, body2) {
		b.fail(fmt.Errorf("op %d: node %d answered %q, node %d %q", op.n, q, body1, rr, body2))
	}
	return nil
}

func (b *churnBench) fail(err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.bad == nil {
		b.bad = err
	}
}

// planRounds is how many leading rounds' optimize configs
// planTrafficMB measures: enough plans that the sum varies little from
// seed to seed, few enough that every run completes them.
const planRounds = 8

// planTrafficMB measures in process the configs the optimizes of the
// first planRounds rounds returned.
func (b *churnBench) planTrafficMB(ctx context.Context) (float64, error) {
	if len(b.planned) < 2*planRounds {
		return 0, fmt.Errorf("the run completed %d of the %d planned optimizes", len(b.planned), 2*planRounds)
	}
	total := 0.0
	for _, op := range b.planned {
		var or optimizeResp
		if err := json.Unmarshal(op.body1, &or); err != nil {
			return 0, err
		}
		r, err := d2t2.MeasureConfig(d2t2.Gustavson(), b.inputs(op), or.Config)
		if err != nil {
			return 0, err
		}
		total += r.TotalMB()
	}
	return total, nil
}

func (b *churnBench) inputs(op *churnOp) d2t2.Inputs {
	return d2t2.Inputs{"A": d2t2.FromCOO(op.tensor()), "B": d2t2.FromCOO(b.base)}
}

// check verifies the first round's results: every node serves the same
// bytes for each key, ids are the content addresses of the generated
// tensors, optimize configs and predictions equal in-process runs, and
// statistics after a delta equal those of the concatenated tensor
// uploaded fresh to a separate node.
func (b *churnBench) check(ctx context.Context) error {
	b.mu.Lock()
	bad := b.bad
	b.mu.Unlock()
	if bad != nil {
		return bad
	}
	if len(b.round0) == 0 {
		return fmt.Errorf("no operation completed")
	}
	for _, op := range b.round0 {
		id, err := snapshot.TensorID(op.tensor())
		if err != nil {
			return err
		}
		if id != op.id {
			return fmt.Errorf("op %d: cluster id %s, content address of the generated tensor %s", op.n, op.id, id)
		}
		endpoint := "/v1/predict"
		if op.optim {
			endpoint = "/v1/optimize"
		}
		for i, nd := range b.nodes {
			body, err := b.client.do(ctx, "POST", nd.url+endpoint, "application/json", op.reqBody, 0)
			if err != nil {
				return err
			}
			if !bytes.Equal(body, op.body1) {
				return fmt.Errorf("op %d: node %d serves %q, the first answer was %q", op.n, i, body, op.body1)
			}
		}
		if op.optim {
			var or optimizeResp
			if err := json.Unmarshal(op.body1, &or); err != nil {
				return err
			}
			p, err := d2t2.OptimizeCtx(ctx, d2t2.Gustavson(), b.inputs(op), d2t2.Options{BufferWords: b.buffer})
			if err != nil {
				return err
			}
			if !sameConfig(p.Config, or.Config) {
				return fmt.Errorf("op %d: cluster config %v, in-process Optimize %v", op.n, or.Config, p.Config)
			}
		} else {
			var pr optimizeResp
			if err := json.Unmarshal(op.body1, &pr); err != nil {
				return err
			}
			want, err := d2t2.PredictConfig(d2t2.Gustavson(), b.inputs(op), churnPredictCfg, serveStatsTile)
			if err != nil {
				return err
			}
			if pr.PredictedMB != want {
				return fmt.Errorf("op %d: cluster predicts %v MB, in process %v MB", op.n, pr.PredictedMB, want)
			}
		}
		if op.delta != nil {
			if err := b.checkDeltaStats(ctx, op); err != nil {
				return fmt.Errorf("op %d: %w", op.n, err)
			}
		}
	}
	return nil
}

// checkDeltaStats compares the statistics every cluster node reports for
// a delta's result with those of a separate node that received the
// concatenated tensor as a fresh upload.
func (b *churnBench) checkDeltaStats(ctx context.Context, op *churnOp) error {
	fresh, err := startNodes(1, func(int, []string) serve.Config {
		return serve.Config{Workers: runtime.NumCPU()}
	}, func(_ int, h http.Handler) http.Handler { return h })
	if err != nil {
		return err
	}
	defer closeNodes(fresh)
	body, err := uploadBody(op.concat)
	if err != nil {
		return err
	}
	data, err := b.client.do(ctx, "POST", fresh[0].url+"/v1/tensors", "text/plain", body, 0)
	if err != nil {
		return err
	}
	var ir ingestResp
	if err := json.Unmarshal(data, &ir); err != nil {
		return err
	}
	if ir.ID != op.id {
		return fmt.Errorf("fresh upload of the concatenation has id %s, the delta gave %s", ir.ID, op.id)
	}
	want, err := b.client.do(ctx, "GET", fresh[0].url+"/v1/tensors/"+ir.ID+"/stats", "", nil, 0)
	if err != nil {
		return err
	}
	for i, nd := range b.nodes {
		got, err := b.client.do(ctx, "GET", nd.url+"/v1/tensors/"+op.id+"/stats", "", nil, 0)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("node %d stats after the delta %q, fresh upload %q", i, got, want)
		}
	}
	return nil
}

var churnCounters = []string{
	"stats_collect_total", "stats_merge_total", "forward_success", "artifact_peer_hits",
}

func (b *churnBench) startCounters() {
	b.m0 = map[string]int64{}
	for _, c := range churnCounters {
		for _, nd := range b.nodes {
			b.m0[c] += nd.srv.Metric(c)
		}
	}
}

func (b *churnBench) counterDelta(name string) int64 {
	var v int64
	for _, nd := range b.nodes {
		v += nd.srv.Metric(name)
	}
	return v - b.m0[name]
}

func (b *churnBench) layers(ctx context.Context, tr *tracer, m metricSet) error {
	b.mu.Lock()
	ops := float64(max(b.ops, 1))
	touched := mean(b.touched)
	b.mu.Unlock()
	m.set("serve.stats_collections", "count", float64(b.counterDelta("stats_collect_total"))/ops)
	m.set("serve.stats_merges", "count", float64(b.counterDelta("stats_merge_total"))/ops)
	// Two public optimize or predict requests per operation.
	m.set("cluster.forwarded_share", "share", float64(b.counterDelta("forward_success"))/(2*ops))
	m.set("cluster.peer_fetches", "count", float64(b.counterDelta("artifact_peer_hits"))/ops)
	m.set("stats.delta_touched_share", "share", touched)

	// Probes on the first round's tensors.
	var up, dl *churnOp
	for _, op := range b.round0 {
		if op.fresh != nil && up == nil {
			up = op
		}
		if op.delta != nil && dl == nil {
			dl = op
		}
	}
	if up == nil || dl == nil {
		return fmt.Errorf("the first round has no upload or no delta")
	}
	const reps = 5
	probe := func(name string, fn func() error) (float64, error) {
		var d []time.Duration
		for i := 0; i < reps; i++ {
			x, err := tr.timeRoot(name, "", fn)
			if err != nil {
				return 0, err
			}
			d = append(d, x)
		}
		return medianOf(d, ms), nil
	}
	v, err := probe("snapshot.tensor_id", func() error { _, err := snapshot.TensorID(up.fresh); return err })
	if err != nil {
		return err
	}
	m.set("snapshot.tensor_id_ms", "ms", v)
	var art []byte
	v, err = probe("snapshot.encode", func() (err error) {
		art, err = snapshot.EncodeBytes(&snapshot.Artifact{Tensor: up.fresh})
		return err
	})
	if err != nil {
		return err
	}
	m.set("snapshot.encode_ms", "ms", v)
	v, err = probe("mmio.parse", func() error { _, err := d2t2.FromStream(bytes.NewReader(up.body)); return err })
	if err != nil {
		return err
	}
	m.set("mmio.parse_mb_per_s", "MB/s", float64(len(up.body))/(1<<20)/(v/1000))
	sess := d2t2.NewSession(nil)
	baseT, deltaT := d2t2.FromCOO(dl.base.tensor()), d2t2.FromCOO(dl.delta)
	if _, _, err := sess.DeltaCtx(ctx, baseT, deltaT, serveStatsTile); err != nil {
		return err
	}
	v, err = probe("stats.delta", func() error { _, _, err := sess.DeltaCtx(ctx, baseT, deltaT, serveStatsTile); return err })
	if err != nil {
		return err
	}
	m.set("stats.delta_ms", "ms", v)

	// A disk-backed store like the nodes', in its own directory.
	st, err := serve.NewStore(filepath.Join(b.dir, "probe"), 64<<20)
	if err != nil {
		return err
	}
	const puts = 50
	var putErr error
	d, _ := tr.timeRoot("store.put", "", func() error {
		for i := 0; i < puts; i++ {
			key := snapshot.ResponseKey("perfbench", []byte(fmt.Sprint(i)))
			if putErr = st.Put(key, art); putErr != nil {
				return putErr
			}
		}
		return nil
	})
	if putErr != nil {
		return putErr
	}
	m.set("store.put_us", "us", us(d)/puts)

	cl := cluster.NewClient(churnSecret, 20*time.Second)
	const pings = 100
	d, err = tr.timeRoot("cluster.ping", "", func() error {
		for i := 0; i < pings; i++ {
			if err := cl.Ping(ctx, b.nodes[1].url); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	m.set("cluster.ping_us", "us", us(d)/pings)
	// The uploading node holds the tensor artifact.
	holder := b.nodes[(up.n+up.n/3)%churnNodes].url
	d, err = tr.timeRoot("cluster.fetch", "", func() error {
		for i := 0; i < pings; i++ {
			if _, err := cl.FetchArtifact(ctx, holder, up.id); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	m.set("cluster.fetch_us", "us", us(d)/pings)
	return nil
}
