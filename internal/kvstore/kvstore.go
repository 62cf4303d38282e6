// Package kvstore is the repository's RocksDB analogue (§5.1): a persistent
// key-value store with an in-memory ordered table, a replicated write-ahead
// log, and a self-describing NVM data region. All replication happens
// through wal.Replicator, so the same store runs over the HyperLoop
// datapath or the Naïve-RDMA baseline unchanged — mirroring how the paper
// swapped RocksDB's log/NVM interface for HyperLoop APIs in 120 lines.
//
// Write path (a put):
//
//  1. allocate (or reuse) the key's slot in the data region;
//  2. append a redo record to the WAL — the slot image is encoded straight
//     into the log ring — and gWRITE+gFLUSH it down the chain; the user ack
//     fires here, once every replica holds the record in NVM;
//  3. update the memtable (read-your-writes);
//  4. later, off the user's critical path, commit the record with
//     ExecuteAndAdvance — gMEMCPY+gFLUSH per entry plus a durable head
//     advance — so replicas' data regions converge.
package kvstore

import (
	"encoding/binary"
	"errors"
	"fmt"

	"hyperloop/internal/cluster"
	"hyperloop/internal/fifo"
	"hyperloop/internal/memtable"
	"hyperloop/internal/rdma"
	"hyperloop/internal/sim"
	"hyperloop/internal/wal"
)

// Errors.
var (
	ErrClosed      = errors.New("kvstore: closed")
	ErrNotFound    = errors.New("kvstore: key not found")
	ErrStale       = errors.New("kvstore: key not yet committed on this replica")
	ErrKeyTooLarge = errors.New("kvstore: key exceeds 255 bytes")
	ErrOutOfSpace  = errors.New("kvstore: data region full")
	ErrCorruptSlot = errors.New("kvstore: corrupt data slot")
)

// Slot layout in the data region (self-describing, so recovery can rebuild
// the index by scanning):
//
//	magic u16 | flags u8 | keyLen u8 | valCap u32 | valLen u32 | crcless pad u32
//	key bytes | value bytes (valCap reserved)
const (
	slotHdr    = 16
	slotMagic  = 0x4b56 // "KV"
	flagValid  = 1 << 0
	flagDead   = 1 << 1 // tombstone
	maxKeyLen  = 255
	slotRound  = 16 // allocation granularity
	defaultCap = 1024
)

// Config sizes a store within the shared NVM window.
type Config struct {
	LogBase  int // WAL region offset (default 0)
	LogSize  int // WAL region size (default 4 MiB)
	DataBase int // data region offset (default LogBase+LogSize)
	DataSize int // data region size (default 8 MiB)
	// CommitEvery triggers ExecuteAndAdvance after this many appends
	// (default 1: commit continuously, off the ack path).
	CommitEvery int
	// Volatile skips the per-write gFLUSH interleave: acks mean replicated
	// but not power-failure durable — the paper's §7 RAMCloud-like mode.
	// Durability can still be forced wholesale via the group's gFLUSH.
	Volatile bool
	// Seed feeds the memtable's deterministic level generator.
	Seed int64
}

func (c *Config) fill() {
	if c.LogSize <= 0 {
		c.LogSize = 4 << 20
	}
	if c.DataBase <= 0 {
		c.DataBase = c.LogBase + c.LogSize
	}
	if c.DataSize <= 0 {
		c.DataSize = 8 << 20
	}
	if c.CommitEvery <= 0 {
		c.CommitEvery = 1
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// slotRef locates a key's slot.
type slotRef struct {
	off int
	cap int // value capacity
}

// DB is a replicated key-value store instance (the chain's head / client).
type DB struct {
	store wal.Store
	log   *wal.Log
	cfg   Config

	mem   *memtable.Skiplist
	index map[string]slotRef
	next  int // bump allocator within the data region

	sinceCommit   int
	committing    bool
	commitPaused  bool
	closed        bool
	commitWaiters []func(error)
	drainStep     func(error) // db.drained, bound once: the executor's completion
	readers       []*replicaReader
	craq          *craqState // nil unless EnableCRAQ

	puts, gets, dels, scans uint64
}

// Open formats a store. done fires when the (empty) log header is durable
// on all replicas.
func Open(store wal.Store, rep wal.Replicator, cfg Config, done func(error)) *DB {
	cfg.fill()
	db := &DB{
		store: store,
		cfg:   cfg,
		mem:   memtable.New(sim.NewRand(cfg.Seed)),
		index: make(map[string]slotRef),
		next:  cfg.DataBase,
	}
	db.drainStep = db.drained
	db.log = wal.New(store, rep, cfg.LogBase, cfg.LogSize, done)
	db.log.OnAck(db.onAppendAck)
	return db
}

// Stats returns operation counters (puts, gets, deletes, scans).
func (db *DB) Stats() (uint64, uint64, uint64, uint64) {
	return db.puts, db.gets, db.dels, db.scans
}

// PendingCommits returns WAL records not yet executed.
func (db *DB) PendingCommits() int { return db.log.Pending() }

// Close marks the store closed.
func (db *DB) Close() { db.closed = true }

// imageSize is the byte length of a slot image: header, key and the whole
// value capacity.
func imageSize(keyLen, vcap int) int { return slotHdr + keyLen + vcap }

// encodeSlot writes a slot image over all of dst (imageSize bytes, holding
// arbitrary old contents — a stretch of the log ring).
func encodeSlot(dst []byte, key string, value []byte, vcap int, flags byte) {
	binary.LittleEndian.PutUint16(dst[0:], slotMagic)
	dst[2] = flags
	dst[3] = byte(len(key))
	binary.LittleEndian.PutUint32(dst[4:], uint32(vcap))
	binary.LittleEndian.PutUint32(dst[8:], uint32(len(value)))
	clear(dst[12:slotHdr])
	n := slotHdr + copy(dst[slotHdr:], key)
	n += copy(dst[n:], value)
	clear(dst[n:])
}

// parseSlot parses a slot at buf without copying: key and value alias buf.
func parseSlot(buf []byte) (key, val []byte, vcap int, flags byte, total int, err error) {
	if len(buf) < slotHdr {
		return nil, nil, 0, 0, 0, ErrCorruptSlot
	}
	if binary.LittleEndian.Uint16(buf[0:]) != slotMagic {
		return nil, nil, 0, 0, 0, ErrCorruptSlot
	}
	flags = buf[2]
	kl := int(buf[3])
	vcap = int(binary.LittleEndian.Uint32(buf[4:]))
	vl := int(binary.LittleEndian.Uint32(buf[8:]))
	total = slotHdr + kl + vcap
	if vl > vcap || total > len(buf) {
		return nil, nil, 0, 0, 0, ErrCorruptSlot
	}
	return buf[slotHdr : slotHdr+kl], buf[slotHdr+kl : slotHdr+kl+vl], vcap, flags, total, nil
}

// clone returns a private, never-nil copy of b.
func clone(b []byte) []byte { return append(make([]byte, 0, len(b)), b...) }

// decodeSlot parses a slot at buf, returning copies of key and value, the
// capacity, flags, and total size.
func decodeSlot(buf []byte) (string, []byte, int, byte, int, error) {
	key, val, vcap, flags, total, err := parseSlot(buf)
	if err != nil {
		return "", nil, 0, 0, 0, err
	}
	return string(key), clone(val), vcap, flags, total, nil
}

// slotSize returns the rounded allocation size for a key/capacity pair.
func slotSize(keyLen, vcap int) int {
	n := slotHdr + keyLen + vcap
	return (n + slotRound - 1) &^ (slotRound - 1)
}

// place finds the slot a write of valLen bytes to key would use — the key's
// current slot if it fits, else a fresh one at the allocation watermark —
// without claiming it: fresh reports that claim must follow.
func (db *DB) place(key string, valLen int) (ref slotRef, fresh bool, err error) {
	if ref, ok := db.index[key]; ok && valLen <= ref.cap {
		return ref, false, nil
	}
	vcap := defaultCap
	if valLen > vcap {
		vcap = (valLen + slotRound - 1) &^ (slotRound - 1)
	}
	if db.next+slotSize(len(key), vcap) > db.cfg.DataBase+db.cfg.DataSize {
		return slotRef{}, false, ErrOutOfSpace
	}
	return slotRef{off: db.next, cap: vcap}, true, nil
}

// claim carves the fresh slot place returned.
func (db *DB) claim(key string, ref slotRef) {
	db.next += slotSize(len(key), ref.cap)
	db.index[key] = ref
}

// allocate finds or creates a slot for key able to hold valLen bytes.
func (db *DB) allocate(key string, valLen int) (slotRef, error) {
	ref, fresh, err := db.place(key, valLen)
	if err == nil && fresh {
		db.claim(key, ref)
	}
	return ref, err
}

// Put stores key=value on all replicas. done fires when the redo record is
// durable everywhere (the RocksDB ack point). The commit to the data region
// happens asynchronously via the WAL executor.
//
// Ring space is reserved before anything is built or claimed: a refused put
// (wal.ErrLogFull backpressure) leaves the ring, the allocator, the index
// and the memtable exactly as they were. In particular no freshly carved
// slot survives it — its bytes would still be zeros, and recovery's slot
// scan stops at the first non-slot header, hiding every later slot.
func (db *DB) Put(key string, value []byte, done func(error)) error {
	if db.closed {
		return ErrClosed
	}
	if len(key) > maxKeyLen {
		return ErrKeyTooLarge
	}
	ref, fresh, err := db.place(key, len(value))
	if err != nil {
		return err
	}
	size := imageSize(len(key), ref.cap)
	if err := db.log.Reserve(1, size); err != nil {
		return err
	}
	if fresh {
		db.claim(key, ref)
	}
	encodeSlot(db.log.Place(ref.off, size), key, value, ref.cap, flagValid)
	db.log.Publish(!db.cfg.Volatile, done)
	db.puts++
	db.mem.PutCopy(key, value)
	return nil
}

// WriteBatch applies several puts and deletes as one atomic unit: a single
// redo record, so recovery sees all or none of the batch (RocksDB's
// WriteBatch semantics over the replicated log).
type WriteBatch struct {
	db  *DB
	ops []batchOp
	err error
	// Fresh slots carved while building the batch, plus the allocation
	// watermarks around them: if Commit's append is refused and nothing else
	// allocated in between, the slots are rolled back so the refusal leaves
	// no allocated-unlogged hole for recovery's scan to stop at.
	fresh             []freshAlloc
	preNext, postNext int
}

// batchOp is one buffered put (val holds a private copy) or delete (dead).
// Its slot image is encoded at Commit, straight into the reserved record.
type batchOp struct {
	key  string
	val  []byte
	ref  slotRef
	dead bool
}

// freshAlloc remembers how to undo one allocation.
type freshAlloc struct {
	key     string
	prev    slotRef
	existed bool
	ref     slotRef
}

// Batch starts an empty write batch.
func (db *DB) Batch() *WriteBatch { return &WriteBatch{db: db} }

// Put adds a key write to the batch.
func (b *WriteBatch) Put(key string, value []byte) *WriteBatch {
	if b.err != nil {
		return b
	}
	if len(key) > maxKeyLen {
		b.err = ErrKeyTooLarge
		return b
	}
	prevRef, existed := b.db.index[key]
	prevNext := b.db.next
	ref, err := b.db.allocate(key, len(value))
	if err != nil {
		b.err = err
		return b
	}
	if !existed || prevRef != ref {
		if len(b.fresh) == 0 {
			b.preNext = prevNext
		}
		b.fresh = append(b.fresh, freshAlloc{key: key, prev: prevRef, existed: existed, ref: ref})
		b.postNext = b.db.next
	}
	b.ops = append(b.ops, batchOp{key: key, val: clone(value), ref: ref})
	return b
}

// Delete adds a key removal to the batch.
func (b *WriteBatch) Delete(key string) *WriteBatch {
	if b.err != nil {
		return b
	}
	ref, ok := b.db.index[key]
	if !ok {
		return b // deleting a missing key is a no-op
	}
	b.ops = append(b.ops, batchOp{key: key, ref: ref, dead: true})
	return b
}

// Len returns the number of operations in the batch.
func (b *WriteBatch) Len() int { return len(b.ops) }

// Commit replicates the batch atomically; done fires at the durability
// point. An empty batch acks immediately.
func (b *WriteBatch) Commit(done func(error)) error {
	db := b.db
	if db.closed {
		return ErrClosed
	}
	if b.err != nil {
		return b.err
	}
	if len(b.ops) == 0 {
		if done != nil {
			done(nil)
		}
		return nil
	}
	total := 0
	for _, op := range b.ops {
		total += imageSize(len(op.key), op.ref.cap)
	}
	if err := db.log.Reserve(len(b.ops), total); err != nil {
		if b.rollbackFresh() {
			// The batch's slots are gone; its ops reference offsets a
			// later allocation may reuse, so a retry of this batch would
			// corrupt the data region. Poison it — callers rebuild.
			b.err = err
		}
		return err
	}
	for _, op := range b.ops {
		flags := byte(flagValid)
		if op.dead {
			flags = flagDead
		}
		encodeSlot(db.log.Place(op.ref.off, imageSize(len(op.key), op.ref.cap)), op.key, op.val, op.ref.cap, flags)
	}
	db.log.Publish(!db.cfg.Volatile, done)
	for _, op := range b.ops {
		if op.dead {
			db.mem.Del(op.key)
			delete(db.index, op.key)
			db.dels++
		} else {
			db.mem.Put(op.key, op.val)
			db.puts++
		}
	}
	b.ops, b.fresh = nil, nil
	return nil
}

// rollbackFresh undoes the batch's fresh allocations after a refused
// append, but only when it is provably safe: no other allocation landed
// after the batch's (db.next unchanged) and every fresh key still maps to
// the slot this batch carved. An interleaved writer makes the slots
// unreclaimable — they stay allocated, and a Commit retry will log them.
// Reports whether the rollback happened.
func (b *WriteBatch) rollbackFresh() bool {
	if len(b.fresh) == 0 || b.db.next != b.postNext {
		return false
	}
	for _, f := range b.fresh {
		if b.db.index[f.key] != f.ref {
			return false
		}
	}
	for i := len(b.fresh) - 1; i >= 0; i-- {
		f := b.fresh[i]
		if f.existed {
			b.db.index[f.key] = f.prev
		} else {
			delete(b.db.index, f.key)
		}
	}
	b.db.next = b.preNext
	b.fresh = nil
	return true
}

// onAppendAck chains the commit policy onto every replication ack (it is
// the log's OnAck hook): records become committable only once every replica
// holds them, so the executor is driven from here rather than from the
// issue path.
func (db *DB) onAppendAck(err error) {
	if err == nil {
		db.maybeCommit()
	}
}

// Get reads a key from the head's memtable. The value aliases the
// memtable's buffer: it is valid until the next write to key.
func (db *DB) Get(key string) ([]byte, bool) {
	db.gets++
	return db.mem.Get(key)
}

// replicaReader is the one-sided read path to one replica: one READ in
// flight, landing in the reader's own registered buffer; the rest queue.
type replicaReader struct {
	db   *DB
	qp   *rdma.QP
	node *cluster.Node
	buf  *rdma.MemoryRegion
	ram  []byte // the bytes behind buf
	busy bool
	cur  replicaRead
	q    fifo.Queue[replicaRead]
}

// replicaRead is one GetFromReplica request.
type replicaRead struct {
	key       string
	off, size int
	done      func([]byte, error)
}

// EnableReplicaReads wires a one-sided RDMA read path from the head to each
// replica, enabling GetFromReplica. Reads observe the replica's committed
// data region, so they are eventually consistent with respect to the head
// (§5.1: "reads from other replicas in our RocksDB implementation are
// eventually consistent").
func (db *DB) EnableReplicaReads(client *cluster.Node, replicas []*cluster.Node) {
	for _, rep := range replicas {
		q, _ := cluster.ConnectPair(client, rep, 64, 1)
		q.SendCQ().SetAutoDrain(true)
		rd := &replicaReader{
			db:   db,
			qp:   q,
			node: rep,
			buf:  client.NIC.RegisterRAM(slotHdr+maxKeyLen+4096, rdma.AccessLocalWrite),
		}
		rd.ram = rd.buf.Backing().(*rdma.RAMBacking).Bytes()
		q.SendCQ().SetCallback(rd.onRead)
		db.readers = append(db.readers, rd)
	}
}

// GetFromReplica reads key's committed value from replica r's NVM via a
// one-sided RDMA READ — no replica CPU. Keys whose latest write has not yet
// been committed there (or that never existed) report ErrStale / not found.
func (db *DB) GetFromReplica(key string, r int, done func([]byte, error)) {
	if db.closed {
		done(nil, ErrClosed)
		return
	}
	if r < 0 || r >= len(db.readers) {
		done(nil, fmt.Errorf("kvstore: no read path to replica %d", r))
		return
	}
	ref, ok := db.index[key]
	if !ok {
		done(nil, ErrNotFound)
		return
	}
	rd := db.readers[r]
	db.gets++
	req := replicaRead{key: key, off: ref.off, size: min(imageSize(len(key), ref.cap), rd.buf.Len()), done: done}
	if rd.busy {
		rd.q.Push(req)
		return
	}
	rd.start(req)
}

// start posts req's READ.
func (rd *replicaReader) start(req replicaRead) {
	rd.busy, rd.cur = true, req
	if _, err := rd.qp.PostSend(rdma.WQE{
		Opcode: rdma.OpRead, Signaled: true,
		RKey: rd.node.Store.RKey(), RAddr: uint64(req.off),
		SGEs: []rdma.SGE{{LKey: rd.buf.LKey(), Offset: 0, Length: uint32(req.size)}},
	}); err != nil {
		rd.busy, rd.cur = false, replicaRead{}
		req.done(nil, err)
	}
}

// onRead completes the in-flight READ: the slot image is parsed where it
// landed (only a served value is copied out), the next queued read starts,
// then the caller hears the result.
func (rd *replicaReader) onRead(e rdma.CQE) {
	req := rd.cur
	var val []byte
	var err error
	if e.Status != rdma.StatusSuccess {
		err = fmt.Errorf("kvstore: replica read %v", e.Status)
	} else if gotKey, v, _, flags, _, perr := parseSlot(rd.ram[:req.size]); perr != nil || string(gotKey) != req.key {
		err = ErrStale // slot not committed on this replica yet
	} else if flags&flagDead != 0 {
		err = ErrNotFound
	} else {
		val = clone(v)
	}
	rd.busy, rd.cur = false, replicaRead{}
	if rd.q.Len() > 0 {
		rd.start(rd.q.Pop())
	}
	req.done(val, err)
}

// Delete removes a key (a durable tombstone slot image in the WAL).
func (db *DB) Delete(key string, done func(error)) error {
	if db.closed {
		return ErrClosed
	}
	ref, ok := db.index[key]
	if !ok {
		if done != nil {
			done(nil)
		}
		return nil
	}
	size := imageSize(len(key), ref.cap)
	if err := db.log.Reserve(1, size); err != nil {
		return err
	}
	encodeSlot(db.log.Place(ref.off, size), key, nil, ref.cap, flagDead)
	db.log.Publish(!db.cfg.Volatile, done)
	db.dels++
	db.mem.Del(key)
	delete(db.index, key)
	return nil
}

// Scan returns up to limit pairs with key >= start. Like Get's, each value
// is valid until the next write to its key.
func (db *DB) Scan(start string, limit int) []memtable.KV {
	db.scans++
	return db.mem.Scan(start, limit)
}

// Size returns the number of live keys.
func (db *DB) Size() int { return db.mem.Len() }

// maybeCommit drains the WAL executor per the commit policy. Commits chain:
// only one ExecuteAndAdvance is outstanding at a time.
func (db *DB) maybeCommit() {
	db.sinceCommit++
	if db.sinceCommit < db.cfg.CommitEvery {
		return
	}
	db.sinceCommit = 0
	db.drain()
}

// Commit requests execution of all pending WAL records; done fires once the
// log is fully drained (including records whose replication ack is still in
// flight).
func (db *DB) Commit(done func(error)) {
	if db.log.Pending() == 0 && !db.committing {
		if done != nil {
			done(nil)
		}
		return
	}
	if done != nil {
		db.commitWaiters = append(db.commitWaiters, done)
	}
	db.drain()
}

func (db *DB) notifyCommitWaiters(err error) {
	if err == nil && (db.log.Pending() > 0 || db.committing) {
		return
	}
	ws := db.commitWaiters
	db.commitWaiters = nil
	for _, w := range ws {
		w(err)
	}
}

// PauseCommits holds back the WAL executor: appends (and their replication
// acks) keep flowing, but no further record is committed to the data region
// until ResumeCommits. Shard migration uses this to freeze the data region
// while its bytes are bulk-copied to a new group. An ExecuteAndAdvance
// already in flight finishes; poll CommitIdle before treating the region as
// frozen.
func (db *DB) PauseCommits() { db.commitPaused = true }

// ResumeCommits re-enables the WAL executor and drains any backlog.
func (db *DB) ResumeCommits() {
	db.commitPaused = false
	if db.log.Pending() > 0 || len(db.commitWaiters) > 0 {
		db.drain()
	}
}

// CommitIdle reports whether no ExecuteAndAdvance is in flight: together
// with PauseCommits it means the data region is frozen.
func (db *DB) CommitIdle() bool { return !db.committing }

// Reattach points the store's WAL at a new replication group (typically the
// destination of a shard migration, or a group rebuilt after chain repair),
// re-replicating the log header and every pending record durably. Stale
// completions from the superseded group are generation-fenced
// (wal.Log.Reattach). done fires once the re-replication completes.
func (db *DB) Reattach(rep wal.Replicator, done func(error)) {
	db.log.Reattach(rep, done)
}

// DataUsed returns the allocated extent of the data region: [base, next).
// Bulk copies only need these bytes — everything beyond is all-zero on both
// source and any freshly formatted destination.
func (db *DB) DataUsed() (base, next int) { return db.cfg.DataBase, db.next }

// ResetReplicaReads drops the one-sided replica read paths (in-flight reads
// still complete on the old wires). After a shard migration the caller
// rewires reads to the new owner group with EnableReplicaReads.
func (db *DB) ResetReplicaReads() { db.readers = nil }

// drain executes replicated records one at a time, off the put ack path. It
// pauses at a record whose replication is still in flight and resumes from
// the next ack (onAppendAck → maybeCommit → drain).
func (db *DB) drain() {
	if db.committing || db.commitPaused {
		return
	}
	db.committing = true
	db.drained(nil)
}

// drained is the executor's step: the previous record's commit completed
// with err (nil to start), so execute the next ready record or go idle.
func (db *DB) drained(err error) {
	if err == nil && db.log.Ready() {
		if err = db.log.ExecuteAndAdvance(db.drainStep); err == nil {
			return
		}
	}
	db.committing = false
	db.notifyCommitWaiters(err)
}

// Rebuild reconstructs the store's contents from a (typically durable,
// post-crash) image of the shared window: the data region is scanned for
// valid slots, then unexecuted WAL records are replayed over it — exactly
// what a new chain member does before joining (§5.1, RocksDB recovery).
func Rebuild(read func(off, size int) []byte, cfg Config) (map[string][]byte, error) {
	cfg.fill()
	out := make(map[string][]byte)

	// Pass 1: scan data slots.
	off := cfg.DataBase
	end := cfg.DataBase + cfg.DataSize
	for off+slotHdr <= end {
		hdr := read(off, slotHdr)
		if binary.LittleEndian.Uint16(hdr[0:]) != slotMagic {
			break // end of allocated space
		}
		kl := int(hdr[3])
		vcap := int(binary.LittleEndian.Uint32(hdr[4:]))
		total := slotSize(kl, vcap)
		buf := read(off, slotHdr+kl+vcap)
		key, val, _, flags, _, err := decodeSlot(buf)
		if err != nil {
			return nil, fmt.Errorf("slot at %d: %w", off, err)
		}
		if flags&flagValid != 0 && flags&flagDead == 0 {
			out[key] = val
		}
		off += total
	}

	// Pass 2: replay unexecuted WAL records.
	rec, err := wal.Recover(read, cfg.LogBase, cfg.LogSize)
	if err != nil {
		return nil, err
	}
	for _, r := range rec.Records {
		for _, e := range r.Entries {
			key, val, _, flags, _, err := decodeSlot(e.Data)
			if err != nil {
				return nil, fmt.Errorf("wal record seq %d: %w", r.Seq, err)
			}
			if flags&flagDead != 0 {
				delete(out, key)
			} else {
				out[key] = val
			}
		}
	}
	return out, nil
}
