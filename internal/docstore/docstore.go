// Package docstore is the repository's MongoDB analogue (§5.2): a document
// store whose front end (query parsing, session handling — the client-side
// software stack whose cost dominates once replication is offloaded) is
// split from a back end of chain replicas holding a journal (write-ahead
// oplog) and a document data region in NVM.
//
// Writes journal via Append (gWRITE+gFLUSH), commit via ExecuteAndAdvance
// under a group write lock (gCAS), and replicas can serve reads under
// per-replica read locks — the paper's recipe for letting every replica
// serve consistent reads (§5, "Locking and Isolation").
package docstore

import (
	"encoding/json"
	"errors"
	"fmt"

	"hyperloop/internal/cluster"
	"hyperloop/internal/fifo"
	"hyperloop/internal/locks"
	"hyperloop/internal/memtable"
	"hyperloop/internal/rdma"
	"hyperloop/internal/sim"
	"hyperloop/internal/wal"
)

// Errors.
var (
	ErrClosed      = errors.New("docstore: closed")
	ErrNotFound    = errors.New("docstore: document not found")
	ErrOutOfSpace  = errors.New("docstore: data region full")
	ErrBadDocument = errors.New("docstore: document does not encode")
	ErrCorruptSlot = errors.New("docstore: corrupt document slot")
)

// Document is a flat field map, JSON-encoded on media (standing in for
// BSON).
type Document map[string]string

// Config shapes a store instance within the shared NVM window.
type Config struct {
	JournalBase int // oplog offset (default 0)
	JournalSize int // oplog bytes (default 4 MiB)
	DataBase    int // document region offset (default JournalBase+JournalSize)
	DataSize    int // document region bytes (default 8 MiB)
	LockBase    int // lock table offset (default DataBase+DataSize)

	// QueryParse is the client-CPU demand per operation: MongoDB's query
	// parsing, validation, and session work (§6.2 attributes the residual
	// HyperLoop latency to exactly this; default 8µs).
	QueryParse sim.Duration
	// CommitEvery batches journal execution (default 1).
	CommitEvery int
	// SlotCap is the reserved on-media size per document body (default
	// 1536 — YCSB's ~1KB documents with headroom).
	SlotCap int
	// Locking wraps every commit in wrLock/wrUnlock so replicas can serve
	// strongly consistent reads (default true). Disable for the
	// eventually-consistent mode (§7).
	Locking bool
	// Seed drives deterministic internals.
	Seed int64
}

func (c *Config) fill() {
	if c.JournalSize <= 0 {
		c.JournalSize = 4 << 20
	}
	if c.DataBase <= 0 {
		c.DataBase = c.JournalBase + c.JournalSize
	}
	if c.DataSize <= 0 {
		c.DataSize = 8 << 20
	}
	if c.LockBase <= 0 {
		c.LockBase = c.DataBase + c.DataSize
	}
	if c.QueryParse < 0 {
		c.QueryParse = 0
	} else if c.QueryParse == 0 {
		c.QueryParse = 8 * sim.Microsecond
	}
	if c.CommitEvery <= 0 {
		c.CommitEvery = 1
	}
	if c.SlotCap <= 0 {
		c.SlotCap = 1536
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// Slot layout (self-describing): magic u16 | flags u8 | idLen u8 | cap u32 |
// len u32 | pad u32 | id | json body.
const (
	slotHdr   = 16
	slotMagic = 0x4453 // "DS"
	flagValid = 1 << 0
	flagDead  = 1 << 1
)

type slotRef struct {
	off int
	cap int
}

// Backend bundles what the store needs from its replication substrate.
type Backend struct {
	// Replicator carries journal appends and commits.
	Rep wal.Replicator
	// Locks provides group locking; nil disables locking regardless of
	// Config.Locking (the naive backend manages isolation on replica CPUs,
	// which its handler cost already accounts for).
	Locks *locks.Manager
	// Replicas are the chain nodes, used for replica-side reads.
	Replicas []*cluster.Node
}

// Store is a document store front end bound to one replica chain.
type Store struct {
	eng     *sim.Engine
	client  *cluster.Node
	backend Backend
	cfg     Config

	journal *wal.Log
	primary *memtable.Skiplist // id → encoded body (the primary's in-memory view)
	index   map[string]slotRef
	next    int

	// One-sided read path: a QP per replica plus a bounce buffer, so
	// FindFromReplica is a real RDMA READ with wire latency — the paper's
	// lock-free/locked replica reads (§5).
	readQPs   []*rdma.QP
	readBuf   *rdma.MemoryRegion
	readBusy  bool
	readQueue fifo.Queue[func()]

	sinceCommit   int
	committing    bool
	closed        bool
	lockOwner     uint64
	outstanding   int // appends issued but not yet replicated
	commitWaiters []func(error)

	inserts, updates, reads, scans, replicaReads uint64
}

// Open formats a document store. done fires once the empty journal is
// durable on all replicas.
func Open(eng *sim.Engine, client *cluster.Node, backend Backend, cfg Config, done func(error)) *Store {
	cfg.fill()
	s := &Store{
		eng:     eng,
		client:  client,
		backend: backend,
		cfg:     cfg,
		primary: memtable.New(sim.NewRand(cfg.Seed)),
		index:   make(map[string]slotRef),
		next:    cfg.DataBase,
		// Owner ids must fit the lock word's 15-bit field.
		lockOwner: uint64(1 + cfg.Seed%0x7ffe),
	}
	s.journal = wal.New(wal.NodeStore{N: client}, backend.Rep, cfg.JournalBase, cfg.JournalSize, done)
	// Wire the one-sided read path.
	if len(backend.Replicas) > 0 {
		s.readBuf = client.NIC.RegisterRAM(slotHdr+256+cfg.SlotCap, rdma.AccessLocalWrite)
		for _, rep := range backend.Replicas {
			q, _ := cluster.ConnectPair(client, rep, 64, 1)
			q.SendCQ().SetAutoDrain(true)
			s.readQPs = append(s.readQPs, q)
		}
	}
	return s
}

// Stats returns (inserts, updates, reads, scans, replicaReads).
func (s *Store) Stats() (uint64, uint64, uint64, uint64, uint64) {
	return s.inserts, s.updates, s.reads, s.scans, s.replicaReads
}

// PendingCommits returns journal records not yet executed.
func (s *Store) PendingCommits() int { return s.journal.Pending() }

// Close marks the store closed.
func (s *Store) Close() { s.closed = true }

func encodeSlot(id string, body []byte, cap int, flags byte) []byte {
	buf := make([]byte, slotHdr+len(id)+cap)
	buf[0] = byte(slotMagic & 0xff)
	buf[1] = byte(slotMagic >> 8)
	buf[2] = flags
	buf[3] = byte(len(id))
	putU32(buf[4:], uint32(cap))
	putU32(buf[8:], uint32(len(body)))
	copy(buf[slotHdr:], id)
	copy(buf[slotHdr+len(id):], body)
	return buf
}

func decodeSlot(buf []byte) (id string, body []byte, cap int, flags byte, total int, err error) {
	if len(buf) < slotHdr || int(buf[0])|int(buf[1])<<8 != slotMagic {
		return "", nil, 0, 0, 0, ErrCorruptSlot
	}
	flags = buf[2]
	il := int(buf[3])
	cap = int(u32(buf[4:]))
	bl := int(u32(buf[8:]))
	total = slotHdr + il + cap
	if bl > cap || total > len(buf) {
		return "", nil, 0, 0, 0, ErrCorruptSlot
	}
	id = string(buf[slotHdr : slotHdr+il])
	body = make([]byte, bl)
	copy(body, buf[slotHdr+il:slotHdr+il+bl])
	return id, body, cap, flags, total, nil
}

func putU32(b []byte, v uint32) {
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
}
func u32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func (s *Store) allocate(id string, bodyLen int) (slotRef, error) {
	if ref, ok := s.index[id]; ok && bodyLen <= ref.cap {
		return ref, nil
	}
	cap := s.cfg.SlotCap
	if bodyLen > cap {
		cap = bodyLen
	}
	sz := slotHdr + len(id) + cap
	sz = (sz + 15) &^ 15
	if s.next+sz > s.cfg.DataBase+s.cfg.DataSize {
		return slotRef{}, ErrOutOfSpace
	}
	ref := slotRef{off: s.next, cap: cap}
	s.next += sz
	s.index[id] = ref
	return ref, nil
}

// frontEnd charges the client-side software stack cost, then runs fn.
func (s *Store) frontEnd(name string, fn func()) {
	if s.cfg.QueryParse == 0 {
		fn()
		return
	}
	s.client.Host.Submit("docstore-"+name, s.cfg.QueryParse, fn)
}

// write journals a document image and acks once replicated durably. The
// primary's in-memory view and the slot index update synchronously
// (read-your-writes on the primary); the front-end parse cost and the
// journal append follow asynchronously.
func (s *Store) write(name, id string, doc Document, done func(error)) error {
	if s.closed {
		return ErrClosed
	}
	body, err := json.Marshal(doc)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBadDocument, err)
	}
	ref, err := s.allocate(id, len(body))
	if err != nil {
		return err
	}
	s.primary.Put(id, body)
	s.outstanding++
	settle := func(err error) {
		s.outstanding--
		if err == nil {
			s.maybeCommit()
		} else {
			s.notifyCommitWaiters(err)
		}
		if done != nil {
			done(err)
		}
	}
	s.frontEnd(name, func() {
		img := encodeSlot(id, body, ref.cap, flagValid)
		if err := s.journal.Append([]wal.Entry{{Offset: ref.off, Data: img}}, settle); err != nil {
			settle(err)
		}
	})
	return nil
}

// Insert stores a new document. done fires at the durability point (journal
// replicated to every replica's NVM).
func (s *Store) Insert(id string, doc Document, done func(error)) error {
	s.inserts++
	return s.write("insert", id, doc, done)
}

// Update merges fields into an existing document (read-modify-write on the
// primary) and journals the result.
func (s *Store) Update(id string, fields Document, done func(error)) error {
	if s.closed {
		return ErrClosed
	}
	s.updates++
	cur, ok := s.Find(id)
	if !ok {
		cur = Document{}
	}
	for k, v := range fields {
		cur[k] = v
	}
	return s.write("update", id, cur, done)
}

// Remove deletes a document: a durable tombstone slot travels the journal,
// so the removal is atomic and recoverable like any write.
func (s *Store) Remove(id string, done func(error)) error {
	if s.closed {
		return ErrClosed
	}
	ref, ok := s.index[id]
	if !ok {
		if done != nil {
			done(nil)
		}
		return nil
	}
	s.primary.Del(id)
	delete(s.index, id)
	s.outstanding++
	settle := func(err error) {
		s.outstanding--
		if err == nil {
			s.maybeCommit()
		} else {
			s.notifyCommitWaiters(err)
		}
		if done != nil {
			done(err)
		}
	}
	s.frontEnd("remove", func() {
		img := encodeSlot(id, nil, ref.cap, flagDead)
		if err := s.journal.Append([]wal.Entry{{Offset: ref.off, Data: img}}, settle); err != nil {
			settle(err)
		}
	})
	return nil
}

// Find reads a document from the primary's in-memory view.
func (s *Store) Find(id string) (Document, bool) {
	s.reads++
	body, ok := s.primary.Get(id)
	if !ok {
		return nil, false
	}
	var doc Document
	if json.Unmarshal(body, &doc) != nil {
		return nil, false
	}
	return doc, true
}

// Scan returns up to limit documents with id >= start, from the primary.
func (s *Store) Scan(start string, limit int) []Document {
	s.scans++
	var out []Document
	for _, kv := range s.primary.Scan(start, limit) {
		var doc Document
		if json.Unmarshal(kv.Value, &doc) == nil {
			out = append(out, doc)
		}
	}
	return out
}

// FindFromReplica serves a read from replica r's NVM under a read lock, so
// every chain member can serve strongly consistent reads (§5). done
// receives the document or an error.
func (s *Store) FindFromReplica(id string, r int, done func(Document, error)) {
	if s.closed {
		done(nil, ErrClosed)
		return
	}
	s.replicaReads++
	ref, ok := s.index[id]
	if !ok {
		done(nil, ErrNotFound)
		return
	}
	node := s.backend.Replicas[r]
	read := func(unlock func(cb func(error))) {
		// One-sided RDMA READ of the slot from the replica's NVM into the
		// client's bounce buffer; no replica CPU involved.
		s.oneSidedRead(r, node, ref.off, slotHdr+len(id)+ref.cap, func(buf []byte, rerr error) {
			if rerr != nil {
				if unlock != nil {
					unlock(func(error) { done(nil, rerr) })
				} else {
					done(nil, rerr)
				}
				return
			}
			_, body, _, flags, _, err := decodeSlot(buf)
			finish := func(e error) {
				if err == nil && flags&flagDead != 0 {
					err = ErrNotFound
				}
				if e != nil && err == nil {
					err = e
				}
				if err != nil {
					done(nil, err)
					return
				}
				var doc Document
				if json.Unmarshal(body, &doc) != nil {
					done(nil, ErrCorruptSlot)
					return
				}
				done(doc, nil)
			}
			if unlock != nil {
				unlock(finish)
			} else {
				finish(nil)
			}
		})
	}
	if s.backend.Locks == nil || !s.cfg.Locking {
		read(nil)
		return
	}
	s.backend.Locks.RdLock(0, r, func(err error) {
		if err != nil {
			done(nil, err)
			return
		}
		read(func(cb func(error)) {
			s.backend.Locks.RdUnlock(0, r, cb)
		})
	})
}

// oneSidedRead issues an RDMA READ of [off, off+size) of replica r's store
// into the client's bounce buffer. Reads serialize on the buffer (one in
// flight); queued reads run in order.
func (s *Store) oneSidedRead(r int, node *cluster.Node, off, size int, done func([]byte, error)) {
	run := func() {
		s.readBusy = true
		q := s.readQPs[r]
		if size > s.readBuf.Len() {
			size = s.readBuf.Len()
		}
		q.SendCQ().SetCallback(func(e rdma.CQE) {
			q.SendCQ().SetCallback(nil)
			buf := make([]byte, size)
			s.readBuf.Backing().ReadAt(0, buf)
			s.readBusy = false
			if s.readQueue.Len() > 0 {
				s.readQueue.Pop()()
			}
			if e.Status != rdma.StatusSuccess {
				done(nil, fmt.Errorf("docstore: replica read %v", e.Status))
				return
			}
			done(buf, nil)
		})
		if _, err := q.PostSend(rdma.WQE{
			Opcode: rdma.OpRead, Signaled: true,
			RKey: node.Store.RKey(), RAddr: uint64(off),
			SGEs: []rdma.SGE{{LKey: s.readBuf.LKey(), Offset: 0, Length: uint32(size)}},
		}); err != nil {
			s.readBusy = false
			done(nil, err)
		}
	}
	if s.readBusy {
		s.readQueue.Push(run)
		return
	}
	run()
}

func (s *Store) maybeCommit() {
	s.sinceCommit++
	if s.sinceCommit < s.cfg.CommitEvery {
		return
	}
	s.sinceCommit = 0
	s.drain()
}

// Commit requests a full journal drain, including appends whose
// replication ack is still outstanding.
func (s *Store) Commit(done func(error)) {
	if s.journal.Pending() == 0 && !s.committing && s.outstanding == 0 {
		if done != nil {
			done(nil)
		}
		return
	}
	if done != nil {
		s.commitWaiters = append(s.commitWaiters, done)
	}
	s.drain()
}

func (s *Store) notifyCommitWaiters(err error) {
	if err == nil && (s.journal.Pending() > 0 || s.committing || s.outstanding > 0) {
		return
	}
	ws := s.commitWaiters
	s.commitWaiters = nil
	for _, w := range ws {
		w(err)
	}
}

// drain executes replicated journal records under the group write lock
// (wrLock → ExecuteAndAdvance → wrUnlock, §5.2), one at a time, off the
// insert/update ack path.
func (s *Store) drain() {
	if s.committing {
		return
	}
	if s.journal.Pending() == 0 || !s.journal.Ready() {
		s.notifyCommitWaiters(nil)
		return
	}
	s.committing = true
	s.commitOne()
}

func (s *Store) commitOne() {
	finish := func(err error) {
		if err != nil {
			s.committing = false
			s.notifyCommitWaiters(err)
			return
		}
		if s.journal.Pending() == 0 || !s.journal.Ready() {
			s.committing = false
			s.notifyCommitWaiters(nil)
			return
		}
		s.commitOne()
	}
	execute := func(unlock func(cb func(error))) {
		err := s.journal.ExecuteAndAdvance(func(err error) {
			if unlock == nil {
				finish(err)
				return
			}
			unlock(func(uerr error) {
				if err == nil {
					err = uerr
				}
				finish(err)
			})
		})
		if err != nil {
			if unlock != nil {
				unlock(func(error) {})
			}
			s.committing = false
			s.notifyCommitWaiters(err)
		}
	}
	if s.backend.Locks == nil || !s.cfg.Locking {
		execute(nil)
		return
	}
	s.backend.Locks.WrLock(0, s.lockOwner, func(err error) {
		if err != nil {
			s.committing = false
			s.notifyCommitWaiters(err)
			return
		}
		execute(func(cb func(error)) {
			s.backend.Locks.WrUnlock(0, s.lockOwner, cb)
		})
	})
}

// Rebuild reconstructs documents from a durable post-crash image: data
// region scan plus journal replay (the hand-off point to "vanilla MongoDB
// recovery" in §5.2).
func Rebuild(read func(off, size int) []byte, cfg Config) (map[string]Document, error) {
	cfg.fill()
	out := make(map[string]Document)
	off := cfg.DataBase
	end := cfg.DataBase + cfg.DataSize
	for off+slotHdr <= end {
		hdr := read(off, slotHdr)
		if int(hdr[0])|int(hdr[1])<<8 != slotMagic {
			break
		}
		il := int(hdr[3])
		cap := int(u32(hdr[4:]))
		total := slotHdr + il + cap
		total = (total + 15) &^ 15
		buf := read(off, slotHdr+il+cap)
		id, body, _, flags, _, err := decodeSlot(buf)
		if err != nil {
			return nil, err
		}
		if flags&flagValid != 0 && flags&flagDead == 0 {
			var doc Document
			if json.Unmarshal(body, &doc) == nil {
				out[id] = doc
			}
		}
		off += total
	}
	rec, err := wal.Recover(read, cfg.JournalBase, cfg.JournalSize)
	if err != nil {
		return nil, err
	}
	for _, r := range rec.Records {
		for _, e := range r.Entries {
			id, body, _, flags, _, err := decodeSlot(e.Data)
			if err != nil {
				return nil, err
			}
			if flags&flagDead != 0 {
				delete(out, id)
				continue
			}
			var doc Document
			if json.Unmarshal(body, &doc) == nil {
				out[id] = doc
			}
		}
	}
	return out, nil
}
