package serve

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestTensorRegistryBoundedOnDisk checks that a disk-backed server
// keeps only MemCacheBytes of registered tensors resident, and that an
// evicted tensor still answers: it reloads from its stored artifact.
// A memory-only server under the same budget evicts nothing.
func TestTensorRegistryBoundedOnDisk(t *testing.T) {
	const budget = 64 << 10
	labels := []string{"A", "B", "C", "D", "E", "F", "G", "H"}

	s, ts := newTestServer(t, Config{MemCacheBytes: budget})
	var ids []string
	for _, l := range labels {
		ids = append(ids, ingestGen(t, ts.URL, l, 32))
	}
	if n := s.tensors.len(); n >= len(labels) {
		t.Fatalf("disk-backed registry holds all %d tensors under a %d-byte budget", n, budget)
	}
	s.tensors.mu.Lock()
	front := s.tensors.ll.Front().Value.(*registryEntry).bytes
	if cur := s.tensors.cur; cur > budget+front {
		t.Errorf("registry holds %d bytes, budget %d plus the newest %d", cur, budget, front)
	}
	s.tensors.mu.Unlock()
	if _, ok := s.tensors.get(ids[0]); ok {
		t.Fatalf("oldest tensor %s still resident", ids[0])
	}
	resp, err := http.Get(ts.URL + "/v1/tensors/" + ids[0] + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats of an evicted tensor: status %d", resp.StatusCode)
	}

	mem, err := New(Config{MemCacheBytes: budget})
	if err != nil {
		t.Fatal(err)
	}
	memTS := httptest.NewServer(mem.Handler())
	defer func() {
		memTS.Close()
		mem.Shutdown(context.Background())
	}()
	for _, l := range labels {
		ingestGen(t, memTS.URL, l, 32)
	}
	if n := mem.tensors.len(); n != len(labels) {
		t.Fatalf("memory-only registry holds %d of %d tensors; it must never evict", n, len(labels))
	}
}
