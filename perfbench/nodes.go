package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"d2t2/internal/serve"
)

// node is one in-process d2t2d server on a loopback ephemeral port.
type node struct {
	srv  *serve.Server
	hs   *http.Server
	url  string
	done chan error
}

// startNodes listens on n loopback ephemeral ports first, so every
// node's configuration can name all member URLs, then builds one
// serve.Server per port and serves its handler, wrapped by wrap.
func startNodes(n int, cfg func(i int, urls []string) serve.Config, wrap func(i int, h http.Handler) http.Handler) ([]*node, error) {
	lns := make([]net.Listener, 0, n)
	urls := make([]string, 0, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns {
				l.Close()
			}
			return nil, fmt.Errorf("listen: %w", err)
		}
		lns = append(lns, ln)
		urls = append(urls, "http://"+ln.Addr().String())
	}
	var nodes []*node
	for i, ln := range lns {
		s, err := serve.New(cfg(i, urls))
		if err != nil {
			closeNodes(nodes)
			for _, l := range lns[i:] {
				l.Close()
			}
			return nil, fmt.Errorf("node %d: %w", i, err)
		}
		nd := &node{srv: s, url: urls[i], done: make(chan error, 1)}
		nd.hs = &http.Server{Handler: wrap(i, s.Handler()), ReadHeaderTimeout: 10 * time.Second}
		go func(ln net.Listener) { nd.done <- nd.hs.Serve(ln) }(ln)
		nodes = append(nodes, nd)
	}
	return nodes, nil
}

// closeNodes stops every listener and waits for its serve loop, then
// shuts the servers down (joining their pools and replication).
func closeNodes(nodes []*node) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, nd := range nodes {
		_ = nd.hs.Shutdown(ctx)
		<-nd.done
	}
	for _, nd := range nodes {
		_ = nd.srv.Shutdown(ctx)
	}
}

// spanHeader carries the client's operation span to the handler wrapper
// of a traced run.
const spanHeader = "X-Perfbench-Span"

// traceHandler records a span named name around every request h serves.
// Its parent is the operation span named by the request's spanHeader,
// or else the one cur holds (requests between nodes carry no header).
func traceHandler(tr *tracer, name string, cur *atomic.Int64, h http.Handler) http.Handler {
	if tr == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var parent spanRef
		if v := r.Header.Get(spanHeader); v != "" {
			n, _ := strconv.Atoi(v)
			parent = spanRef(n)
		} else if cur != nil {
			parent = spanRef(cur.Load())
		}
		s := tr.start(parent, name, r.Method+" "+r.URL.Path)
		h.ServeHTTP(w, r)
		tr.end(s)
	})
}

// httpClient is the benchmark's loopback HTTP client.
type httpClient struct {
	tr *http.Transport
	hc *http.Client
}

func newHTTPClient(conns int) *httpClient {
	t := &http.Transport{
		MaxIdleConnsPerHost: conns,
		IdleConnTimeout:     time.Minute,
	}
	return &httpClient{tr: t, hc: &http.Client{Transport: t, Timeout: 60 * time.Second}}
}

func (c *httpClient) close() { c.tr.CloseIdleConnections() }

// do sends one request and returns the response body; a status other
// than 200 is an error. span, when not zero, is sent in spanHeader.
func (c *httpClient) do(ctx context.Context, method, url, ctype string, body []byte, span spanRef) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return nil, err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	if span != 0 {
		req.Header.Set(spanHeader, strconv.Itoa(int(span)))
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, data)
	}
	return data, nil
}
