// Package wal implements the replicated write-ahead log HyperLoop's case
// studies build on (§5): records are redo lists of (offset, len, data)
// modifications to a shared store window, appended with gWRITE+gFLUSH and
// committed with gMEMCPY+gFLUSH followed by a durable head-pointer advance
// (ExecuteAndAdvance). The same log drives both the HyperLoop and the
// Naïve-RDMA backends through the Replicator interface.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"hyperloop/internal/core"
	"hyperloop/internal/fifo"
	"hyperloop/internal/metrics"
	"hyperloop/internal/sim"
	"hyperloop/internal/span"
)

// Replicator is the group-primitive surface the log needs. CoreReplicator
// adapts any core.Backend (HyperLoop or the Naive baseline) to it. Every
// operation completes through done exactly once, refusals included; done
// takes the backend's own core.Result so the log can hand a group its
// pre-bound completions without wrapping them (only Result.Err is read).
type Replicator interface {
	// Write replicates [off, off+size) of the client's store to every
	// replica; durable interleaves flushing.
	Write(off, size int, durable bool, done func(core.Result))
	// Memcpy copies [src, src+size) to [dst, dst+size) within every
	// replica's store.
	Memcpy(dst, src, size int, durable bool, done func(core.Result))
	// Flush drains every replica's NIC cache to NVM.
	Flush(done func(core.Result))
}

// Store is client-local access to the shared store window. Writes are CPU
// stores (durable immediately on the local node).
type Store interface {
	WriteLocal(off int, data []byte)
	ReadLocal(off, size int) []byte
	// Window returns the live bytes [off, off+size) of the window itself, so
	// a record can be encoded where it will live. Bytes written through it
	// are tracked for durability only once Persist covers them, within the
	// same event; Window + Persist over one range is one WriteLocal without
	// the staging copy. The one writer that never persists is the test-only
	// poisonReclaimed, which runs only over an in-memory Store.
	Window(off, size int) []byte
	Persist(off, size int)
}

// Entry is one modification in a record: data to be placed at Offset in the
// store window (the paper's 3-tuple ⟨data, len, offset⟩).
//
// The entries a Log hands out (to taps, through Place) alias the record's
// bytes in the log ring: Data is valid until the head advances past the
// record, after which the ring reuses the bytes. Copy what must live longer.
type Entry struct {
	Offset int
	Data   []byte
}

// Record is a decoded log record.
type Record struct {
	Seq     uint64
	Entries []Entry
	// pos/len locate the encoded record in the log ring (for gMEMCPY
	// source offsets).
	pos, size int
}

// Errors.
var (
	ErrLogFull    = errors.New("wal: log full")
	ErrCorrupt    = errors.New("wal: corrupt record")
	ErrEmpty      = errors.New("wal: no records to execute")
	ErrNotReady   = errors.New("wal: head record not yet replicated")
	ErrTooLarge   = errors.New("wal: record larger than log")
	ErrBadLayout  = errors.New("wal: bad layout")
	ErrRetargeted = errors.New("wal: log retargeted during operation")
)

// On-media layout:
//
//	header (32B): magic u32 | pad u32 | head u64 | headSeq u64 | rsvd u64
//	ring: records and pad markers
//	record: magic u32 | crc u32 | seq u64 | nEntries u32 | bodyLen u32 | body
//	body: repeat{ offset u64 | len u32 | data }
//	pad marker: padMagic u32 | padLen u32 (covers to end of ring)
//
// Recovery never trusts a tail pointer (it is only replicated lazily): it
// scans from head, accepting records whose CRC verifies and whose sequence
// continues monotonically from headSeq — anything else is a torn write or
// a stale previous lap and ends the log.
const (
	headerSize  = 32
	recHdrSize  = 24
	entryHdr    = 12
	logMagic    = 0x4c505948 // "HYPL"
	recMagic    = 0x4352504c // "LPRC"
	padMagic    = 0x44415050 // "PPAD"
	padHdrSize  = 8
	minRecSpace = recHdrSize + entryHdr
)

// Log is the client-side manager of a replicated WAL living at
// [base, base+size) of the store window.
type Log struct {
	store Store
	rep   Replicator
	base  int
	size  int // ring bytes (excluding header)

	head    int    // ring offset of the oldest unexecuted record
	headSeq uint64 // sequence of the oldest unexecuted record
	tail    int    // ring offset where the next record goes
	used    int    // bytes between head and tail
	seq     uint64

	pending  fifo.Queue[*pendingRec] // appended, not yet executed
	inflight []*pendingRec           // popped by ExecuteAndAdvance, copies not yet done
	freeRecs []*pendingRec           // finished records, reused by newRec

	// open is the record between Reserve and Publish (nil otherwise), openBuf
	// its bytes in the ring, openW the encode cursor and openLeft the entries
	// still to be placed.
	open     *pendingRec
	openBuf  []byte
	openW    int
	openLeft int

	// gen counts Reattach calls. Every record carries the gen its
	// completions were issued under; Reattach re-issues the pending tail in
	// fresh records, so a superseded record's late acks find a stale gen and
	// become no-ops (beyond reporting ErrRetargeted) — a stale group must not
	// advance the head or duplicate records.
	gen uint64

	appends  uint64
	executes uint64

	hdr   [headerSize]byte // header image, rebuilt in place by writeHeader
	onAck func(error)      // see OnAck

	obs  *walObs // nil when uninstrumented (the default)
	taps []Tap   // lifecycle observers (empty by default)

	poisonReclaimed bool // tests over an in-memory Store: scribble over ring bytes the head has passed, unpersisted
}

// walObs holds observability handles. All hooks observe only — they never
// schedule events or touch log state, so instrumented runs stay
// byte-identical to uninstrumented ones.
type walObs struct {
	label     string
	now       func() sim.Time
	appends   *metrics.Counter
	refused   *metrics.Counter
	executes  *metrics.Counter
	appendLat *metrics.Histogram
	commitLat *metrics.Histogram
	spans     *span.Recorder
}

// Instrument attaches metrics and span recording to the log. reg and spans
// may each be nil to enable only the other; now supplies the virtual clock
// (typically eng.Now). label carries the tenant/shard dimension.
func (l *Log) Instrument(reg *metrics.Registry, spans *span.Recorder, label string, now func() sim.Time) {
	o := &walObs{label: label, now: now, spans: spans}
	if reg != nil {
		o.appends = reg.Counter("wal", "appends", label)
		o.refused = reg.Counter("wal", "appends_refused", label)
		o.executes = reg.Counter("wal", "executes", label)
		o.appendLat = reg.Histogram("wal", "append_latency_ns", label)
		o.commitLat = reg.Histogram("wal", "commit_latency_ns", label)
	}
	l.obs = o
}

// Tap observes the log's lifecycle events. Taps are synchronous and
// observe-only — they must not schedule events or mutate log state from
// inside a callback, so tapped runs stay byte-identical to untapped ones
// (consumers that need async work, like the segment streamer, schedule it
// from their own timers). Events:
//
//   - Appended fires after a record is accepted into the ring (local write
//     done, replication issued but not yet acked). entries alias ring bytes
//     (see Entry): a tap that keeps them past the record's commit must copy.
//   - Acked fires when the record's replication write completes on every
//     replica — the client-visible durability (ack) point. It fires again if
//     Reattach re-replicates the record to a rebuilt group.
//   - Applied fires inside ExecuteAndAdvance after the record's entries have
//     been applied to the client-local store, before the replica copies ack.
//   - Committed fires when the record's durable head advance begins — every
//     replica has acknowledged every entry copy by this point, so the record
//     is globally visible and can never be rolled back.
//   - Retargeted fires when Reattach re-points the log at a rebuilt group.
type Tap interface {
	Appended(seq uint64, entries []Entry)
	Acked(seq uint64)
	Applied(seq uint64)
	Committed(seq uint64)
	Retargeted(gen uint64)
}

// AddTap registers a lifecycle observer. Multiple taps fire in registration
// order.
func (l *Log) AddTap(t Tap) { l.taps = append(l.taps, t) }

// pendingRec pairs a record with its replication state: ExecuteAndAdvance
// must not commit a record whose append has not been acknowledged by every
// replica — the gMEMCPY would race ahead of the gWRITE on a different
// channel and copy stale log bytes.
//
// Records are pooled per log, and carry their completions as func fields
// bound once, when the record is first created: handing pr.onAppendAck to a
// group costs nothing per reuse, where a closure over (log, record, done)
// would be allocated per append. The record is released — poisoned, back on
// the free list — after its head advance has been acknowledged and every
// completion issued against it has been delivered (refs); a record Reattach
// superseded is never released, so no late ack can reach a recycled one.
type pendingRec struct {
	l        *Log
	rec      Record
	acked    bool
	gen      uint64 // l.gen the record's completions were issued under
	refs     int    // completions issued and not yet delivered
	finished bool   // head advance acknowledged: release once refs drains
	released bool

	appendDone func(error)
	appendObs  obsOp
	execDone   func(error)
	execObs    obsOp
	remaining  int   // entry copies of the current execute still in flight
	failed     error // first failure of the current execute
	reattach   *reattachOp

	recCompletions
}

// recCompletions are a record's completions, bound to its methods once.
type recCompletions struct {
	onAppendAck, onEntryDone, onHeadAck, onReack func(core.Result)
}

// newRec returns a zeroed record (its Entries backing is kept) issued under
// the current generation.
func (l *Log) newRec() *pendingRec {
	var pr *pendingRec
	if n := len(l.freeRecs); n > 0 {
		pr = l.freeRecs[n-1]
		l.freeRecs = l.freeRecs[:n-1]
		*pr = pendingRec{l: l, rec: Record{Entries: pr.rec.Entries[:0]}, recCompletions: pr.recCompletions}
	} else {
		pr = &pendingRec{l: l}
		pr.recCompletions = recCompletions{pr.appendAcked, pr.entryDone, pr.headAcked, pr.reacked}
	}
	pr.gen = l.gen
	return pr
}

// delivered accounts for one completion arriving at pr.
func (pr *pendingRec) delivered() {
	if pr.released {
		panic("wal: completion delivered to a released record")
	}
	pr.refs--
}

// settle releases pr once it is finished and nothing is outstanding against
// it. Records of a superseded generation are left to the garbage collector.
func (pr *pendingRec) settle() {
	if !pr.finished || pr.refs != 0 || pr.gen != pr.l.gen {
		return
	}
	pr.released = true
	pr.appendDone, pr.execDone, pr.reattach = nil, nil, nil
	pr.l.freeRecs = append(pr.l.freeRecs, pr)
}

// noteRefused records a ring-full backpressure refusal.
func (o *walObs) noteRefused() {
	if o == nil {
		return
	}
	if o.refused != nil {
		o.refused.Inc()
	}
	if o.spans != nil {
		o.spans.Annotate("wal", "append refused: ring full ("+o.label+")")
	}
}

// obsOp is one observed operation in flight: its issue time and span.
type obsOp struct {
	start sim.Time
	sp    *span.Span
}

// begin counts an operation and opens its latency observation and span. A
// nil receiver (the uninstrumented default) does nothing.
func (o *walObs) begin(op string) obsOp {
	if o == nil {
		return obsOp{}
	}
	count := o.executes
	if op == "wal-append" {
		count = o.appends
	}
	if count != nil {
		count.Inc()
	}
	ob := obsOp{start: o.now()}
	if o.spans != nil {
		ob.sp = o.spans.Start(op, o.label)
	}
	return ob
}

// end closes an observation opened by begin.
func (o *walObs) end(op string, ob obsOp, err error) {
	if o == nil {
		return
	}
	lat := o.commitLat
	if op == "wal-append" {
		lat = o.appendLat
	}
	if lat != nil {
		lat.Observe(o.now().Sub(ob.start))
	}
	if ob.sp != nil {
		if err != nil {
			ob.sp.Annotate("error", err.Error())
		}
		ob.sp.End()
	}
}

// New initializes (formats) a log at [base, base+size) of the store. The
// header is replicated so replicas agree on an empty log.
func New(store Store, rep Replicator, base, size int, done func(error)) *Log {
	if size <= headerSize+minRecSpace {
		panic(ErrBadLayout)
	}
	l := &Log{store: store, rep: rep, base: base, size: size - headerSize}
	l.writeHeader()
	if rep != nil {
		rep.Write(base, headerSize, true, func(res core.Result) {
			if done != nil {
				done(res.Err)
			}
		})
	} else if done != nil {
		done(nil)
	}
	return l
}

func (l *Log) writeHeader() {
	binary.LittleEndian.PutUint32(l.hdr[0:], logMagic)
	binary.LittleEndian.PutUint64(l.hdr[8:], uint64(l.head))
	binary.LittleEndian.PutUint64(l.hdr[16:], l.headSeq)
	l.store.WriteLocal(l.base, l.hdr[:])
}

// OnAck installs fn to run at every record's replication ack, just before
// the record's own done: the hook for whoever owns the log's commit policy
// (kvstore drains the executor from it), so that policy costs no per-append
// wrapper around done.
func (l *Log) OnAck(fn func(error)) { l.onAck = fn }

// ring converts a ring offset to a store-window offset.
func (l *Log) ring(off int) int { return l.base + headerSize + off }

// free returns usable ring bytes.
func (l *Log) free() int { return l.size - l.used }

// Pending returns the number of appended, unexecuted records.
func (l *Log) Pending() int { return l.pending.Len() }

// Seq returns the next record sequence number.
func (l *Log) Seq() uint64 { return l.seq }

// Gen returns the Reattach generation (0 until the first repair).
func (l *Log) Gen() uint64 { return l.gen }

// Executing returns the number of records popped by ExecuteAndAdvance whose
// replica copies have not yet completed.
func (l *Log) Executing() int { return len(l.inflight) }

// Stats returns (appends, executes).
func (l *Log) Stats() (uint64, uint64) { return l.appends, l.executes }

// decodeRecord parses a record at buf, returning it and the encoded size.
func decodeRecord(buf []byte) (Record, int, error) {
	if len(buf) < recHdrSize {
		return Record{}, 0, ErrCorrupt
	}
	if binary.LittleEndian.Uint32(buf[0:]) != recMagic {
		return Record{}, 0, ErrCorrupt
	}
	n := int(binary.LittleEndian.Uint32(buf[16:]))
	bodyLen := int(binary.LittleEndian.Uint32(buf[20:]))
	total := recHdrSize + bodyLen
	if total > len(buf) {
		return Record{}, 0, ErrCorrupt
	}
	if crc32.ChecksumIEEE(buf[8:total]) != binary.LittleEndian.Uint32(buf[4:]) {
		return Record{}, 0, ErrCorrupt
	}
	rec := Record{Seq: binary.LittleEndian.Uint64(buf[8:]), size: total}
	r := recHdrSize
	for i := 0; i < n; i++ {
		if r+entryHdr > total {
			return Record{}, 0, ErrCorrupt
		}
		off := int(binary.LittleEndian.Uint64(buf[r:]))
		dl := int(binary.LittleEndian.Uint32(buf[r+8:]))
		if r+entryHdr+dl > total {
			return Record{}, 0, ErrCorrupt
		}
		data := make([]byte, dl)
		copy(data, buf[r+entryHdr:])
		rec.Entries = append(rec.Entries, Entry{Offset: off, Data: data})
		r += entryHdr + dl
	}
	return rec, total, nil
}

// Append encodes a record, writes it into the local log, and replicates it
// durably (gWRITE + interleaved gFLUSH). done fires when every replica has
// the record in NVM — the commit point for the transaction's durability.
func (l *Log) Append(entries []Entry, done func(error)) error {
	return l.AppendMode(entries, true, done)
}

// AppendMode is Append with explicit durability: durable=false skips the
// per-hop flush interleave, giving the paper's §7 RAMCloud-like semantics
// (replicated in memory, lost on power failure until a later gFLUSH).
func (l *Log) AppendMode(entries []Entry, durable bool, done func(error)) error {
	if len(entries) == 0 {
		return ErrBadLayout
	}
	dataBytes := 0
	for _, e := range entries {
		dataBytes += len(e.Data)
	}
	if err := l.Reserve(len(entries), dataBytes); err != nil {
		return err
	}
	for _, e := range entries {
		copy(l.Place(e.Offset, len(e.Data)), e.Data)
	}
	l.Publish(durable, done)
	return nil
}

// Reserve opens the next record in place in the ring: n entries carrying
// dataBytes of payload in total. The caller then claims each entry with
// Place, fills the bytes it returns, and seals the record with Publish —
// the payload is written once, where it will live, with no staging buffer.
// A refusal (ErrLogFull, ErrTooLarge) changes nothing. No other Log method
// may be called between Reserve and Publish.
func (l *Log) Reserve(n, dataBytes int) error {
	if l.open != nil {
		panic("wal: Reserve with a record already open")
	}
	if n <= 0 {
		return ErrBadLayout
	}
	size := recHdrSize + n*entryHdr + dataBytes
	if size+padHdrSize > l.size {
		return ErrTooLarge
	}

	// Wrap with a pad marker if the record would straddle the ring end.
	// (free checks keep one spare byte so head==tail always means empty.)
	if l.tail+size > l.size {
		padded := l.size - l.tail
		if l.free() < size+padded+1 {
			l.obs.noteRefused()
			return ErrLogFull
		}
		if padded >= padHdrSize {
			pad := l.store.Window(l.ring(l.tail), padHdrSize)
			binary.LittleEndian.PutUint32(pad[0:], padMagic)
			binary.LittleEndian.PutUint32(pad[4:], uint32(padded))
			l.store.Persist(l.ring(l.tail), padHdrSize)
			// Replicate just the marker; the skipped bytes carry no state.
			l.rep.Write(l.ring(l.tail), padHdrSize, false, nil)
		}
		// A gap too small for a marker is inferred from position alone.
		l.used += padded
		l.tail = 0
	}
	if l.free() < size+1 {
		l.obs.noteRefused()
		return ErrLogFull
	}

	pr := l.newRec()
	pr.appendObs = l.obs.begin("wal-append")
	pr.rec.Seq, pr.rec.pos, pr.rec.size = l.seq, l.tail, size
	if cap(pr.rec.Entries) < n {
		pr.rec.Entries = make([]Entry, 0, n)
	}
	buf := l.store.Window(l.ring(l.tail), size)
	binary.LittleEndian.PutUint32(buf[0:], recMagic)
	binary.LittleEndian.PutUint64(buf[8:], l.seq)
	binary.LittleEndian.PutUint32(buf[16:], uint32(n))
	binary.LittleEndian.PutUint32(buf[20:], uint32(size-recHdrSize))
	l.open, l.openBuf, l.openW, l.openLeft = pr, buf, recHdrSize, n
	return nil
}

// Place claims the next entry of the reserved record — size bytes destined
// for offset — and returns its data bytes in the ring for the caller to
// fill completely (they hold whatever the previous lap left there).
func (l *Log) Place(offset, size int) []byte {
	pr, w := l.open, l.openW
	if pr == nil || l.openLeft == 0 || w+entryHdr+size > len(l.openBuf) {
		panic("wal: Place outside the reserved record")
	}
	l.openLeft--
	binary.LittleEndian.PutUint64(l.openBuf[w:], uint64(offset))
	binary.LittleEndian.PutUint32(l.openBuf[w+8:], uint32(size))
	data := l.openBuf[w+entryHdr : w+entryHdr+size : w+entryHdr+size]
	pr.rec.Entries = append(pr.rec.Entries, Entry{Offset: offset, Data: data})
	l.openW = w + entryHdr + size
	return data
}

// Publish seals the reserved record — every reserved byte must have been
// placed — persists it locally as one CPU store and replicates it (durable
// as in AppendMode). done fires when every replica holds the record.
func (l *Log) Publish(durable bool, done func(error)) {
	pr, buf := l.open, l.openBuf
	if pr == nil || l.openLeft != 0 || l.openW != len(buf) {
		panic("wal: Publish of an incomplete record")
	}
	l.open, l.openBuf = nil, nil
	binary.LittleEndian.PutUint32(buf[4:], crc32.ChecksumIEEE(buf[8:]))
	pos, size := pr.rec.pos, pr.rec.size
	l.store.Persist(l.ring(pos), size)
	l.tail += size
	if l.tail == l.size {
		l.tail = 0
	}
	l.used += size
	l.seq++
	l.appends++
	pr.appendDone = done
	l.pending.Push(pr)
	for _, t := range l.taps {
		t.Appended(pr.rec.Seq, pr.rec.Entries)
	}
	pr.refs++
	l.rep.Write(l.ring(pos), size, durable, pr.onAppendAck)
}

// appendAcked is the record's replication ack (bound as pr.onAppendAck).
func (pr *pendingRec) appendAcked(res core.Result) {
	pr.delivered()
	l, err, done := pr.l, res.Err, pr.appendDone
	pr.appendDone = nil
	if err == nil && pr.gen == l.gen {
		pr.acked = true
		for _, t := range l.taps {
			t.Acked(pr.rec.Seq)
		}
	}
	l.obs.end("wal-append", pr.appendObs, err)
	if l.onAck != nil {
		l.onAck(err)
	}
	if done != nil {
		done(err)
	}
	pr.settle()
}

// Ready reports whether the oldest unexecuted record has been replicated
// and may be committed.
func (l *Log) Ready() bool {
	return l.pending.Len() > 0 && l.pending.Front().acked
}

// ExecuteAndAdvance commits the oldest unexecuted record: one gMEMCPY (with
// interleaved gFLUSH) per entry, copying payload bytes from the log ring to
// their target offsets on every replica, then a durable head advance. done
// fires after the head update is acknowledged (§5, "Log Processing").
//
// A record whose copies fail (group failure mid-execute) is NOT lost: it
// returns to the pending queue and is replayed — by a later
// ExecuteAndAdvance or by Reattach after chain repair — so a durably-logged
// record can never be dropped from the client's redo path.
func (l *Log) ExecuteAndAdvance(done func(error)) error {
	if l.pending.Len() == 0 {
		return ErrEmpty
	}
	pr := l.pending.Front()
	if !pr.acked {
		return ErrNotReady
	}
	l.pending.Pop()
	l.inflight = append(l.inflight, pr)
	pr.execDone = done
	pr.execObs = l.obs.begin("wal-commit")

	// Apply locally (client-side data region mirrors the replicas).
	for _, e := range pr.rec.Entries {
		l.store.WriteLocal(e.Offset, e.Data)
	}
	for _, t := range l.taps {
		t.Applied(pr.rec.Seq)
	}

	// Issue every entry's copy; the last completion gates the head update.
	n := len(pr.rec.Entries)
	pr.remaining, pr.failed = n, nil
	dataPos := pr.rec.pos + recHdrSize
	for i := 0; i < n; i++ {
		// The last copy's completion may run synchronously and recycle pr.
		e := pr.rec.Entries[i]
		src := l.ring(dataPos + entryHdr)
		dataPos += entryHdr + len(e.Data)
		pr.refs++
		l.rep.Memcpy(e.Offset, src, len(e.Data), true, pr.onEntryDone)
	}
	return nil
}

// entryDone is one entry copy's completion (bound as pr.onEntryDone).
func (pr *pendingRec) entryDone(res core.Result) {
	pr.delivered()
	l := pr.l
	if pr.gen != l.gen {
		// Reattach ran while this execute was in flight: the record is
		// already back in pending (re-issued in a fresh record) for replay
		// against the new group.
		if pr.failed == nil {
			pr.failed = ErrRetargeted
		}
	} else if res.Err != nil && pr.failed == nil {
		pr.failed = res.Err
	}
	pr.remaining--
	if pr.remaining != 0 {
		return
	}
	if pr.gen == l.gen {
		l.removeInflight(pr)
		if pr.failed != nil {
			l.reinstate(pr)
		}
	}
	if pr.failed == nil {
		l.advanceHead(pr)
		return
	}
	err, done := pr.failed, pr.execDone
	pr.execDone = nil
	l.obs.end("wal-commit", pr.execObs, err)
	if done != nil {
		done(err)
	}
}

// removeInflight drops pr from the in-flight execute list.
func (l *Log) removeInflight(pr *pendingRec) {
	for i, p := range l.inflight {
		if p == pr {
			l.inflight = append(l.inflight[:i], l.inflight[i+1:]...)
			return
		}
	}
}

// reinstate returns a popped record to the pending queue, keeping the queue
// sorted by sequence (concurrent executes can fail out of order).
func (l *Log) reinstate(pr *pendingRec) {
	i := 0
	for ; i < l.pending.Len(); i++ {
		p := l.pending.At(i)
		if p == pr {
			return
		}
		if p.rec.Seq > pr.rec.Seq {
			break
		}
	}
	l.pending.Insert(i, pr)
}

// reattachOp is one Reattach's completion state: it counts the re-writes
// down and reports the first error.
type reattachOp struct {
	writes   int
	firstErr error
	done     func(error)
}

func (ra *reattachOp) finish(err error) {
	if err != nil && ra.firstErr == nil {
		ra.firstErr = err
	}
	ra.writes--
	if ra.writes == 0 && ra.done != nil {
		ra.done(ra.firstErr)
	}
}

// Reattach points the log at rep — typically a replication group rebuilt
// after chain repair (§5.1) — and re-replicates everything the new
// membership must agree on: the current header and every pending record,
// durably. In-flight executes interrupted by the failure return to the
// pending queue for replay; their stale completions are ignored. Pending
// records are (re)marked acked as their writes complete, so appends whose
// acks were lost in the outage become executable again. done fires once
// every re-write has completed, with the first error if any.
//
// Each pending record continues in a fresh record of the new generation; the
// superseded one keeps whatever completions the old group still owes it and
// is never recycled, so those late acks are fenced by their stale gen.
func (l *Log) Reattach(rep Replicator, done func(error)) {
	l.rep = rep
	l.gen++
	for _, t := range l.taps {
		t.Retargeted(l.gen)
	}
	for _, pr := range l.inflight {
		l.reinstate(pr)
	}
	clear(l.inflight)
	l.inflight = l.inflight[:0]

	n := l.pending.Len()
	ra := &reattachOp{writes: 1 + n, done: done}
	l.writeHeader()
	rep.Write(l.base, headerSize, true, func(res core.Result) { ra.finish(res.Err) })
	for i := 0; i < n; i++ {
		old := l.pending.Pop()
		pr := l.newRec()
		pr.rec.Seq, pr.rec.pos, pr.rec.size = old.rec.Seq, old.rec.pos, old.rec.size
		pr.rec.Entries = append(pr.rec.Entries, old.rec.Entries...)
		pr.acked, pr.reattach = old.acked, ra
		l.pending.Push(pr)
	}
	for i := 0; i < n; i++ {
		pr := l.pending.At(i)
		pr.refs++
		rep.Write(l.ring(pr.rec.pos), pr.rec.size, true, pr.onReack)
	}
}

// reacked is a Reattach re-write's completion (bound as pr.onReack).
func (pr *pendingRec) reacked(res core.Result) {
	pr.delivered()
	l, ra := pr.l, pr.reattach
	if res.Err == nil && pr.gen == l.gen {
		pr.acked = true
		for _, t := range l.taps {
			t.Acked(pr.rec.Seq)
		}
	}
	ra.finish(res.Err)
	pr.settle()
}

// advanceHead truncates the executed record from the ring and replicates
// the new header durably.
func (l *Log) advanceHead(pr *pendingRec) {
	rec := &pr.rec
	for _, t := range l.taps {
		t.Committed(rec.Seq)
	}
	consumed := rec.size
	if rec.pos != l.head {
		// The record wrapped past a pad (possibly marker-less) that filled
		// [head, ringEnd); consume the pad together with the record.
		consumed += l.size - l.head
	}
	if l.poisonReclaimed {
		reclaimed := l.store.Window(l.ring(rec.pos), rec.size)
		for i := range reclaimed {
			reclaimed[i] = 0xDB
		}
	}
	l.head = rec.pos + rec.size
	if l.head == l.size {
		l.head = 0
	}
	l.used -= consumed
	l.headSeq = rec.Seq + 1
	l.executes++
	l.writeHeader()
	pr.refs++
	l.rep.Write(l.base, headerSize, true, pr.onHeadAck)
}

// headAcked is the durable head advance's ack (bound as pr.onHeadAck): the
// end of the record's life.
func (pr *pendingRec) headAcked(res core.Result) {
	pr.delivered()
	done := pr.execDone
	pr.execDone = nil
	pr.l.obs.end("wal-commit", pr.execObs, res.Err)
	if done != nil {
		done(res.Err)
	}
	pr.finished = true
	pr.settle()
}

// Recovered describes the state found by Recover.
type Recovered struct {
	Head, Tail int
	Seq        uint64
	Records    []Record // valid, unexecuted records in order
}

// Recover scans a log region (typically a replica's durable bytes after a
// failure) and returns the unexecuted records. Invalid or torn records end
// the scan — everything after a corruption is discarded, matching redo-log
// semantics.
func Recover(read func(off, size int) []byte, base, size int) (Recovered, error) {
	hdr := read(base, headerSize)
	if binary.LittleEndian.Uint32(hdr) != logMagic {
		return Recovered{}, ErrCorrupt
	}
	out := Recovered{
		Head: int(binary.LittleEndian.Uint64(hdr[8:])),
		Seq:  binary.LittleEndian.Uint64(hdr[16:]),
	}
	ringSize := size - headerSize
	pos := out.Head
	expect := out.Seq
	for {
		if pos+padHdrSize > ringSize {
			pos = 0
			continue
		}
		probe := read(base+headerSize+pos, padHdrSize)
		if binary.LittleEndian.Uint32(probe) == padMagic {
			pos = 0
			continue
		}
		avail := ringSize - pos
		buf := read(base+headerSize+pos, avail)
		rec, n, err := decodeRecord(buf)
		if err != nil || rec.Seq != expect {
			// Torn write, unreplicated suffix, or a stale previous lap:
			// the log ends here.
			break
		}
		rec.pos = pos
		out.Records = append(out.Records, rec)
		expect++
		pos += n
		if pos == ringSize {
			pos = 0
		}
	}
	out.Tail = pos
	return out, nil
}

// SyncDuration is a hint for how long callers should expect an append+flush
// to take; used by apps to size batch timers. Purely advisory.
const SyncDuration = 20 * sim.Microsecond

func (l *Log) String() string {
	return fmt.Sprintf("wal.Log{head=%d tail=%d used=%d pending=%d seq=%d}", l.head, l.tail, l.used, l.pending.Len(), l.seq)
}
