package naive

import (
	"bytes"
	"testing"
)

// FuzzCommandCodec: for every group size 1..8, a command encoded over a
// slot full of arbitrary bytes decodes to itself, and encoding it over two
// slots that differ in every byte gives identical images — the encoder
// writes every byte, so nothing of a previous lap survives in a ring slot.
func FuzzCommandCodec(f *testing.F) {
	f.Add(uint8(1), uint64(0), uint64(64), uint64(0), uint32(1024), true, uint64(0), uint64(0), uint64(0), uint64(0), []byte{0xff})
	f.Add(uint8(2), uint64(7), uint64(128), uint64(0), uint32(0), false, uint64(3), uint64(9), uint64(0b101), uint64(0xdeadbeef), []byte{1, 2, 3})
	f.Add(uint8(3), uint64(1<<40), uint64(4096), uint64(512), uint32(512), false, uint64(0), uint64(0), uint64(0), uint64(0), []byte{1})
	f.Add(uint8(4), ^uint64(0), uint64(0), uint64(0), uint32(0), false, uint64(0), uint64(0), uint64(0), uint64(0), []byte{})
	f.Fuzz(func(t *testing.T, op uint8, seq, off, src uint64, size uint32, durable bool, casOld, casNew, exec, resSeed uint64, garbage []byte) {
		if len(garbage) == 0 {
			garbage = []byte{0xa5}
		}
		for n := 1; n <= 8; n++ {
			m := command{op: op, seq: seq, off: off, src: src, size: size, durable: durable,
				casOld: casOld, casNew: casNew, exec: exec}
			want := make([]uint64, n) // a command without results encodes zeros
			if op == 2 {
				m.results = make([]uint64, n)
				for i := range m.results {
					m.results[i] = resSeed*uint64(2*i+1) ^ uint64(i)<<56
				}
				copy(want, m.results)
			}
			// Two slots (plus a guard byte) that differ in every byte.
			a := make([]byte, cmdOp+8*n+1)
			b := make([]byte, len(a))
			for i := range a {
				a[i] = garbage[i%len(garbage)]
				b[i] = ^a[i]
			}
			m.encodeInto(a, n)
			m.encodeInto(b, n)
			if !bytes.Equal(a[:len(a)-1], b[:len(b)-1]) {
				t.Fatalf("n=%d: encoding depends on the slot's previous bytes:\n%x\n%x", n, a, b)
			}
			if a[len(a)-1] != garbage[(len(a)-1)%len(garbage)] {
				t.Fatalf("n=%d: encoding wrote past the command", n)
			}
			got := command{results: make([]uint64, 0, n)}
			got.decodeInto(a, n)
			m.results = want
			if got.op != m.op || got.seq != m.seq || got.off != m.off || got.src != m.src ||
				got.size != m.size || got.durable != m.durable || got.casOld != m.casOld ||
				got.casNew != m.casNew || got.exec != m.exec || len(got.results) != n {
				t.Fatalf("n=%d: decoded %+v, encoded %+v", n, got, m)
			}
			for i := range want {
				if got.results[i] != want[i] {
					t.Fatalf("n=%d: result word %d = %#x, want %#x", n, i, got.results[i], want[i])
				}
			}
		}
	})
}
