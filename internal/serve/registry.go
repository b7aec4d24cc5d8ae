package serve

import (
	"container/list"
	"sync"

	"d2t2"
)

// tensorRegistry maps content addresses to registered tensors. On a
// disk-backed server it keeps at most maxBytes of tensors resident
// (plus the most recently registered one), evicting the least recently
// used: an evicted tensor reloads from its persisted TENS artifact in
// tensorByID, so the bound costs a decode, never an answer. A
// memory-only server passes maxBytes 0 and never evicts, because its
// artifacts can leave the memory LRU and an evicted tensor could then
// become unresolvable. For the same reason an entry stays pinned until
// its artifact is known to be stored.
//
// A tensorRegistry is safe for concurrent use.
type tensorRegistry struct {
	maxBytes int64 // <= 0: never evict

	mu  sync.Mutex
	ll  *list.List               // front = most recently used
	idx map[string]*list.Element // id -> element whose Value is *registryEntry
	cur int64
}

type registryEntry struct {
	id     string
	t      *d2t2.Tensor
	bytes  int64
	pinned bool
}

func newTensorRegistry(maxBytes int64) *tensorRegistry {
	return &tensorRegistry{maxBytes: maxBytes, ll: list.New(), idx: make(map[string]*list.Element)}
}

// tensorBytes estimates a tensor's resident size: one word per
// coordinate and per value of every entry.
func tensorBytes(t *d2t2.Tensor) int64 {
	return int64(t.NNZ()) * int64(8*(t.Order()+1))
}

// get returns the tensor registered under id, marking it recently used.
func (r *tensorRegistry) get(id string) (*d2t2.Tensor, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	el, ok := r.idx[id]
	if !ok {
		return nil, false
	}
	r.ll.MoveToFront(el)
	return el.Value.(*registryEntry).t, true
}

// add registers t under id unless id is already registered, and returns
// the registered tensor — the first registration wins — and whether id
// was already present. stored says t's artifact is already in the
// store; otherwise the entry is pinned until markStored.
func (r *tensorRegistry) add(id string, t *d2t2.Tensor, stored bool) (*d2t2.Tensor, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if el, ok := r.idx[id]; ok {
		r.ll.MoveToFront(el)
		return el.Value.(*registryEntry).t, true
	}
	ent := &registryEntry{id: id, t: t, bytes: tensorBytes(t), pinned: !stored}
	r.idx[id] = r.ll.PushFront(ent)
	r.cur += ent.bytes
	r.evict()
	return t, false
}

// markStored unpins id once its artifact is in the store.
func (r *tensorRegistry) markStored(id string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if el, ok := r.idx[id]; ok {
		el.Value.(*registryEntry).pinned = false
		r.evict()
	}
}

// evict drops least-recently-used unpinned entries, never the front
// one, until the byte bound holds. The caller holds r.mu.
func (r *tensorRegistry) evict() {
	if r.maxBytes <= 0 {
		return
	}
	for el := r.ll.Back(); el != nil && el != r.ll.Front() && r.cur > r.maxBytes; {
		prev := el.Prev()
		if ent := el.Value.(*registryEntry); !ent.pinned {
			r.ll.Remove(el)
			delete(r.idx, ent.id)
			r.cur -= ent.bytes
		}
		el = prev
	}
}

// len reports how many tensors are resident.
func (r *tensorRegistry) len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ll.Len()
}
