package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"math/rand"
)

// All inputs come from the harness's own math/rand stream — never from the
// simulator's sim.Rand — so a change inside the program under test cannot
// change what it is fed. Each generator hashes everything it emits; the
// digest is printed per workload so two commits provably saw the same ops.

type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) u64(vs ...uint64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], v)
		d.h.Write(b[:])
	}
}

func (d *digest) bytes(p []byte) { d.h.Write(p) }

func (d *digest) str(s string) { d.u64(uint64(len(s))); d.h.Write([]byte(s)) }

func (d *digest) sum() string { return hex.EncodeToString(d.h.Sum(nil))[:16] }

// Primitive kinds in the prims / naive_coloc stream.
const (
	opWrite = iota
	opCAS
	opMemcpy
	opFlush
)

// Window layout both arms replicate: primSlots 1 KiB data slots, then
// primWords 8-byte gCAS words.
const (
	primIO     = 1024
	primSlots  = 256
	primWords  = 64
	primBlocks = 64
	primCAS    = primSlots * primIO
	primWindow = primCAS + 8*primWords
)

// primOp is one pre-generated group operation, identical for both arms.
type primOp struct {
	kind     uint8
	block    uint8  // gWRITE: payload block
	word     uint8  // gCAS: lock word
	casHit   bool   // old = current replicated value (succeeds) vs casConst (misses)
	slot     uint16 // gWRITE / gMEMCPY destination slot
	src      uint16 // gMEMCPY source slot
	casConst uint64
	casNew   uint64
}

// primInputs is everything a prims-family run is fed.
type primInputs struct {
	blocks [][]byte // payload pool; each write stamps its op index over the first 8 bytes
	ops    []primOp
	digest string
}

// genPrimOps draws n ops of the paper's microbenchmark mix: durable 1 KiB
// gWRITE 50% / gCAS 20% / durable gMEMCPY 20% / gFLUSH 10%.
func genPrimOps(seed int64, n int) primInputs {
	r := rand.New(rand.NewSource(seed))
	d := newDigest()
	in := primInputs{ops: make([]primOp, n)}
	for i := 0; i < primBlocks; i++ {
		b := make([]byte, primIO)
		r.Read(b)
		in.blocks = append(in.blocks, b)
		d.bytes(b)
	}
	for i := range in.ops {
		o := &in.ops[i]
		switch k := r.Intn(10); {
		case k < 5:
			o.kind = opWrite
			o.slot = uint16(r.Intn(primSlots))
			o.block = uint8(r.Intn(primBlocks))
		case k < 7:
			o.kind = opCAS
			o.word = uint8(r.Intn(primWords))
			o.casHit = r.Intn(2) == 0
			o.casConst = r.Uint64() | 1 // never the initial 0, so a miss is a miss
			o.casNew = r.Uint64()
		case k < 9:
			o.kind = opMemcpy
			o.slot = uint16(r.Intn(primSlots))
			o.src = uint16((int(o.slot) + 1 + r.Intn(primSlots-1)) % primSlots)
		default:
			o.kind = opFlush
		}
		hit := uint64(0)
		if o.casHit {
			hit = 1
		}
		d.u64(uint64(o.kind), uint64(o.block), uint64(o.word), hit,
			uint64(o.slot), uint64(o.src), o.casConst, o.casNew)
	}
	in.digest = d.sum()
	return in
}

// zipf draws ranks in [0, n) with P(k) ∝ 1/(k+1)^theta by inverting a
// precomputed CDF — the harness's own generator (YCSB's 0.99 skew).
type zipf struct {
	cdf []float64
	r   *rand.Rand
}

func newZipf(r *rand.Rand, n int, theta float64) *zipf {
	z := &zipf{cdf: make([]float64, n), r: r}
	sum := 0.0
	for k := 0; k < n; k++ {
		sum += 1 / math.Pow(float64(k+1), theta)
		z.cdf[k] = sum
	}
	for k := range z.cdf {
		z.cdf[k] /= sum
	}
	return z
}

func (z *zipf) next() int {
	u := z.r.Float64()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
