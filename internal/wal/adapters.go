package wal

import (
	"hyperloop/internal/cluster"
	"hyperloop/internal/core"
)

// CoreReplicator is the one adapter from a core.Backend — either arm's
// group — to Replicator. It is the only place a primitive's two refusal
// paths (a synchronous error, or Result.Err through the callback) collapse
// into Replicator's single done. done goes to the group as it is — no
// wrapper per operation. Held by pointer, reassigning G swaps the group
// underneath a live log; Log.Reattach then re-replicates the pending tail
// onto the new group.
type CoreReplicator struct{ G core.Backend }

// Write implements Replicator via gWRITE (+gFLUSH when durable).
func (r CoreReplicator) Write(off, size int, durable bool, done func(core.Result)) {
	refused(r.G.GWrite(off, size, durable, done), done)
}

// Memcpy implements Replicator via gMEMCPY.
func (r CoreReplicator) Memcpy(dst, src, size int, durable bool, done func(core.Result)) {
	refused(r.G.GMemcpy(dst, src, size, durable, done), done)
}

// Flush implements Replicator via gFLUSH.
func (r CoreReplicator) Flush(done func(core.Result)) {
	refused(r.G.GFlush(done), done)
}

// refused turns a synchronous refusal into the callback the group will now
// never fire.
func refused(err error, done func(core.Result)) {
	if err != nil && done != nil {
		done(core.Result{Err: err})
	}
}

// NodeStore adapts a cluster node to the Store interface.
type NodeStore struct{ N *cluster.Node }

// WriteLocal implements Store.
func (s NodeStore) WriteLocal(off int, data []byte) { s.N.StoreWrite(off, data) }

// ReadLocal implements Store.
func (s NodeStore) ReadLocal(off, size int) []byte { return s.N.StoreBytes(off, size) }

// Window implements Store.
func (s NodeStore) Window(off, size int) []byte { return s.N.StoreWindow(off, size) }

// Persist implements Store.
func (s NodeStore) Persist(off, size int) { s.N.StorePersist(off, size) }

// LocalReplicator is a no-network Replicator for unreplicated setups and
// unit tests: operations apply to the given local stores synchronously.
type LocalReplicator struct {
	Stores []Store
}

// Write implements Replicator by copying from the first store to the rest.
func (r LocalReplicator) Write(off, size int, durable bool, done func(core.Result)) {
	if len(r.Stores) > 0 {
		data := r.Stores[0].Window(off, size)
		for _, s := range r.Stores[1:] {
			s.WriteLocal(off, data)
		}
	}
	if done != nil {
		done(core.Result{})
	}
}

// Memcpy implements Replicator.
func (r LocalReplicator) Memcpy(dst, src, size int, durable bool, done func(core.Result)) {
	for _, s := range r.Stores[1:] {
		s.WriteLocal(dst, s.ReadLocal(src, size))
	}
	if done != nil {
		done(core.Result{})
	}
}

// Flush implements Replicator (no-op: local stores are CPU-durable).
func (r LocalReplicator) Flush(done func(core.Result)) {
	if done != nil {
		done(core.Result{})
	}
}
