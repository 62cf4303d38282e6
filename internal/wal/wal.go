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

	"hyperloop/internal/metrics"
	"hyperloop/internal/sim"
	"hyperloop/internal/span"
)

// Replicator is the group-primitive surface the log needs. CoreReplicator
// adapts any core.Backend (HyperLoop or the Naive baseline) to it.
type Replicator interface {
	// Write replicates [off, off+size) of the client's store to every
	// replica; durable interleaves flushing.
	Write(off, size int, durable bool, done func(error))
	// Memcpy copies [src, src+size) to [dst, dst+size) within every
	// replica's store.
	Memcpy(dst, src, size int, durable bool, done func(error))
	// Flush drains every replica's NIC cache to NVM.
	Flush(done func(error))
}

// Store is client-local access to the shared store window. Writes are CPU
// stores (durable immediately on the local node).
type Store interface {
	WriteLocal(off int, data []byte)
	ReadLocal(off, size int) []byte
}

// Entry is one modification in a record: data to be placed at Offset in the
// store window (the paper's 3-tuple ⟨data, len, offset⟩).
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

	pending  []*pendingRec // appended, not yet executed
	inflight []*pendingRec // popped by ExecuteAndAdvance, copies not yet done

	// gen counts Reattach calls. Completion callbacks capture the gen they
	// were issued under and become no-ops (beyond reporting ErrRetargeted)
	// if the log has since been re-pointed at a rebuilt group — a stale
	// group's late acks must not advance the head or duplicate records.
	gen uint64

	appends  uint64
	executes uint64

	obs  *walObs // nil when uninstrumented (the default)
	taps []Tap   // lifecycle observers (empty by default)
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
//     done, replication issued but not yet acked).
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
type pendingRec struct {
	rec   Record
	acked bool
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

// observe wraps an operation completion with a counter, a latency
// observation, and a span covering issue→completion. Nil receiver (the
// uninstrumented default) returns done unchanged.
func (o *walObs) observe(op string, done func(error)) func(error) {
	if o == nil {
		return done
	}
	var count *metrics.Counter
	var lat *metrics.Histogram
	if op == "wal-append" {
		count, lat = o.appends, o.appendLat
	} else {
		count, lat = o.executes, o.commitLat
	}
	if count != nil {
		count.Inc()
	}
	start := o.now()
	var sp *span.Span
	if o.spans != nil {
		sp = o.spans.Start(op, o.label)
	}
	return func(err error) {
		if lat != nil {
			lat.Observe(o.now().Sub(start))
		}
		if sp != nil {
			if err != nil {
				sp.Annotate("error", err.Error())
			}
			sp.End()
		}
		if done != nil {
			done(err)
		}
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
		rep.Write(base, headerSize, true, func(err error) {
			if done != nil {
				done(err)
			}
		})
	} else if done != nil {
		done(nil)
	}
	return l
}

func (l *Log) writeHeader() {
	buf := make([]byte, headerSize)
	binary.LittleEndian.PutUint32(buf[0:], logMagic)
	binary.LittleEndian.PutUint64(buf[8:], uint64(l.head))
	binary.LittleEndian.PutUint64(buf[16:], l.headSeq)
	l.store.WriteLocal(l.base, buf)
}

// ring converts a ring offset to a store-window offset.
func (l *Log) ring(off int) int { return l.base + headerSize + off }

// free returns usable ring bytes.
func (l *Log) free() int { return l.size - l.used }

// Pending returns the number of appended, unexecuted records.
func (l *Log) Pending() int { return len(l.pending) }

// Seq returns the next record sequence number.
func (l *Log) Seq() uint64 { return l.seq }

// Gen returns the Reattach generation (0 until the first repair).
func (l *Log) Gen() uint64 { return l.gen }

// Executing returns the number of records popped by ExecuteAndAdvance whose
// replica copies have not yet completed.
func (l *Log) Executing() int { return len(l.inflight) }

// Stats returns (appends, executes).
func (l *Log) Stats() (uint64, uint64) { return l.appends, l.executes }

// encodeRecord serializes entries with a CRC over the body and sequence.
func encodeRecord(seq uint64, entries []Entry) []byte {
	bodyLen := 0
	for _, e := range entries {
		bodyLen += entryHdr + len(e.Data)
	}
	buf := make([]byte, recHdrSize+bodyLen)
	binary.LittleEndian.PutUint32(buf[0:], recMagic)
	binary.LittleEndian.PutUint64(buf[8:], seq)
	binary.LittleEndian.PutUint32(buf[16:], uint32(len(entries)))
	binary.LittleEndian.PutUint32(buf[20:], uint32(bodyLen))
	w := recHdrSize
	for _, e := range entries {
		binary.LittleEndian.PutUint64(buf[w:], uint64(e.Offset))
		binary.LittleEndian.PutUint32(buf[w+8:], uint32(len(e.Data)))
		copy(buf[w+entryHdr:], e.Data)
		w += entryHdr + len(e.Data)
	}
	crc := crc32.ChecksumIEEE(buf[8:])
	binary.LittleEndian.PutUint32(buf[4:], crc)
	return buf
}

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
	enc := encodeRecord(l.seq, entries)
	if len(enc)+padHdrSize > l.size {
		return ErrTooLarge
	}

	// Wrap with a pad marker if the record would straddle the ring end.
	// (free checks keep one spare byte so head==tail always means empty.)
	if l.tail+len(enc) > l.size {
		padded := l.size - l.tail
		if l.free() < len(enc)+padded+1 {
			l.obs.noteRefused()
			return ErrLogFull
		}
		if padded >= padHdrSize {
			pad := make([]byte, padHdrSize)
			binary.LittleEndian.PutUint32(pad[0:], padMagic)
			binary.LittleEndian.PutUint32(pad[4:], uint32(padded))
			l.store.WriteLocal(l.ring(l.tail), pad)
			// Replicate just the marker; the skipped bytes carry no state.
			l.rep.Write(l.ring(l.tail), padHdrSize, false, nil)
		}
		// A gap too small for a marker is inferred from position alone.
		l.used += padded
		l.tail = 0
	}
	if l.free() < len(enc)+1 {
		l.obs.noteRefused()
		return ErrLogFull
	}
	done = l.obs.observe("wal-append", done)

	pos := l.tail
	l.store.WriteLocal(l.ring(pos), enc)
	rec := Record{Seq: l.seq, pos: pos, size: len(enc)}
	for _, e := range entries {
		rec.Entries = append(rec.Entries, e)
	}
	l.tail += len(enc)
	if l.tail == l.size {
		l.tail = 0
	}
	l.used += len(enc)
	l.seq++
	l.appends++
	pr := &pendingRec{rec: rec}
	l.pending = append(l.pending, pr)
	for _, t := range l.taps {
		t.Appended(rec.Seq, rec.Entries)
	}

	l.rep.Write(l.ring(pos), len(enc), durable, func(err error) {
		if err == nil {
			pr.acked = true
			for _, t := range l.taps {
				t.Acked(rec.Seq)
			}
		}
		if done != nil {
			done(err)
		}
	})
	return nil
}

// Ready reports whether the oldest unexecuted record has been replicated
// and may be committed.
func (l *Log) Ready() bool {
	return len(l.pending) > 0 && l.pending[0].acked
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
	if len(l.pending) == 0 {
		return ErrEmpty
	}
	pr := l.pending[0]
	if !pr.acked {
		return ErrNotReady
	}
	rec := pr.rec
	l.pending = l.pending[1:]
	l.inflight = append(l.inflight, pr)
	gen := l.gen
	done = l.obs.observe("wal-commit", done)

	// Apply locally (client-side data region mirrors the replicas).
	for _, e := range rec.Entries {
		l.store.WriteLocal(e.Offset, e.Data)
	}
	for _, t := range l.taps {
		t.Applied(rec.Seq)
	}

	// Issue every entry's copy; the last completion gates the head update.
	remaining := len(rec.Entries)
	var failed error
	finishEntry := func(err error) {
		if l.gen != gen {
			// Reattach ran while this execute was in flight: the record is
			// already back in pending for replay against the new group.
			if failed == nil {
				failed = ErrRetargeted
			}
		} else if err != nil && failed == nil {
			failed = err
		}
		remaining--
		if remaining != 0 {
			return
		}
		if l.gen == gen {
			l.removeInflight(pr)
			if failed != nil {
				l.reinstate(pr)
			}
		}
		if failed != nil {
			if done != nil {
				done(failed)
			}
			return
		}
		l.advanceHead(rec, done)
	}
	dataPos := rec.pos + recHdrSize
	for _, e := range rec.Entries {
		src := l.ring(dataPos + entryHdr)
		l.rep.Memcpy(e.Offset, src, len(e.Data), true, finishEntry)
		dataPos += entryHdr + len(e.Data)
	}
	return nil
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
	for _, p := range l.pending {
		if p == pr {
			return
		}
	}
	i := 0
	for i < len(l.pending) && l.pending[i].rec.Seq < pr.rec.Seq {
		i++
	}
	l.pending = append(l.pending, nil)
	copy(l.pending[i+1:], l.pending[i:])
	l.pending[i] = pr
}

// Reattach points the log at rep — typically a replication group rebuilt
// after chain repair (§5.1) — and re-replicates everything the new
// membership must agree on: the current header and every pending record,
// durably. In-flight executes interrupted by the failure return to the
// pending queue for replay; their stale completions are ignored. Pending
// records are (re)marked acked as their writes complete, so appends whose
// acks were lost in the outage become executable again. done fires once
// every re-write has completed, with the first error if any.
func (l *Log) Reattach(rep Replicator, done func(error)) {
	l.rep = rep
	l.gen++
	gen := l.gen
	for _, t := range l.taps {
		t.Retargeted(l.gen)
	}
	for len(l.inflight) > 0 {
		l.reinstate(l.inflight[0])
		l.inflight = l.inflight[1:]
	}
	writes := 1 + len(l.pending)
	var firstErr error
	finish := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
		writes--
		if writes == 0 && done != nil {
			done(firstErr)
		}
	}
	l.writeHeader()
	rep.Write(l.base, headerSize, true, finish)
	for _, pr := range l.pending {
		pr := pr
		rep.Write(l.ring(pr.rec.pos), pr.rec.size, true, func(err error) {
			if err == nil && l.gen == gen {
				pr.acked = true
				for _, t := range l.taps {
					t.Acked(pr.rec.Seq)
				}
			}
			finish(err)
		})
	}
}

// advanceHead truncates the executed record from the ring and replicates
// the new header durably.
func (l *Log) advanceHead(rec Record, done func(error)) {
	for _, t := range l.taps {
		t.Committed(rec.Seq)
	}
	consumed := rec.size
	if rec.pos != l.head {
		// The record wrapped past a pad (possibly marker-less) that filled
		// [head, ringEnd); consume the pad together with the record.
		consumed += l.size - l.head
	}
	l.head = rec.pos + rec.size
	if l.head == l.size {
		l.head = 0
	}
	l.used -= consumed
	l.headSeq = rec.Seq + 1
	l.executes++
	l.writeHeader()
	l.rep.Write(l.base, headerSize, true, func(err error) {
		if done != nil {
			done(err)
		}
	})
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
	return fmt.Sprintf("wal.Log{head=%d tail=%d used=%d pending=%d seq=%d}", l.head, l.tail, l.used, len(l.pending), l.seq)
}
