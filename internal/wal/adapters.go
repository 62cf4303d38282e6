package wal

import (
	"hyperloop/internal/cluster"
	"hyperloop/internal/core"
)

// CoreReplicator is the one adapter from a core.Backend — either arm's
// group — to Replicator. It is the only place a primitive's two refusal
// paths (a synchronous error, or Result.Err through the callback) collapse
// into Replicator's single done(error). Held by pointer, reassigning G swaps
// the group underneath a live log; Log.Reattach then re-replicates the
// pending tail onto the new group.
type CoreReplicator struct{ G core.Backend }

// Write implements Replicator via gWRITE (+gFLUSH when durable).
func (r CoreReplicator) Write(off, size int, durable bool, done func(error)) {
	refused(r.G.GWrite(off, size, durable, wrap(done)), done)
}

// Memcpy implements Replicator via gMEMCPY.
func (r CoreReplicator) Memcpy(dst, src, size int, durable bool, done func(error)) {
	refused(r.G.GMemcpy(dst, src, size, durable, wrap(done)), done)
}

// Flush implements Replicator via gFLUSH.
func (r CoreReplicator) Flush(done func(error)) {
	refused(r.G.GFlush(wrap(done)), done)
}

func wrap(done func(error)) func(core.Result) {
	if done == nil {
		return nil
	}
	return func(res core.Result) { done(res.Err) }
}

// refused turns a synchronous refusal into the callback the group will now
// never fire.
func refused(err error, done func(error)) {
	if err != nil && done != nil {
		done(err)
	}
}

// NodeStore adapts a cluster node to the Store interface.
type NodeStore struct{ N *cluster.Node }

// WriteLocal implements Store.
func (s NodeStore) WriteLocal(off int, data []byte) { s.N.StoreWrite(off, data) }

// ReadLocal implements Store.
func (s NodeStore) ReadLocal(off, size int) []byte { return s.N.StoreBytes(off, size) }

// LocalReplicator is a no-network Replicator for unreplicated setups and
// unit tests: operations apply to the given local stores synchronously.
type LocalReplicator struct {
	Stores []Store
}

// Write implements Replicator by copying from the first store to the rest.
func (r LocalReplicator) Write(off, size int, durable bool, done func(error)) {
	if len(r.Stores) > 0 {
		data := r.Stores[0].ReadLocal(off, size)
		for _, s := range r.Stores[1:] {
			s.WriteLocal(off, data)
		}
	}
	if done != nil {
		done(nil)
	}
}

// Memcpy implements Replicator.
func (r LocalReplicator) Memcpy(dst, src, size int, durable bool, done func(error)) {
	for _, s := range r.Stores[1:] {
		s.WriteLocal(dst, s.ReadLocal(src, size))
	}
	if done != nil {
		done(nil)
	}
}

// Flush implements Replicator (no-op: local stores are CPU-durable).
func (r LocalReplicator) Flush(done func(error)) {
	if done != nil {
		done(nil)
	}
}
