package oracle

import (
	"bytes"
	"fmt"

	"hyperloop/internal/nvm"
	"hyperloop/internal/sim"
)

// shadowDevice is the exact reference model for nvm.Device: two flat byte
// arrays plus one dirty bool per byte. O(size) per op and trivially
// correct; the real device's interval-set tracker must agree with it
// byte-for-byte after every operation.
type shadowDevice struct {
	volatile []byte
	durable  []byte
	dirty    []bool
}

func newShadowDevice(size int) *shadowDevice {
	return &shadowDevice{
		volatile: make([]byte, size),
		durable:  make([]byte, size),
		dirty:    make([]bool, size),
	}
}

func (s *shadowDevice) write(off int, data []byte) {
	copy(s.volatile[off:], data)
	for i := off; i < off+len(data); i++ {
		s.dirty[i] = true
	}
}

func (s *shadowDevice) store(off int, data []byte) {
	copy(s.volatile[off:], data)
	copy(s.durable[off:], data)
	for i := off; i < off+len(data); i++ {
		s.dirty[i] = false
	}
}

func (s *shadowDevice) markDirty(off, n int) {
	for i := off; i < off+n; i++ {
		s.dirty[i] = true
	}
}

func (s *shadowDevice) flush(off, n int) int {
	synced := 0
	for i := off; i < off+n; i++ {
		if s.dirty[i] {
			s.durable[i] = s.volatile[i]
			s.dirty[i] = false
			synced++
		}
	}
	return synced
}

func (s *shadowDevice) powerFail() {
	for i := range s.dirty {
		if s.dirty[i] {
			s.volatile[i] = s.durable[i]
			s.dirty[i] = false
		}
	}
}

func (s *shadowDevice) dirtyBytes() int {
	n := 0
	for _, d := range s.dirty {
		if d {
			n++
		}
	}
	return n
}

// CheckNVM drives n random operations through nvm.Device and the per-byte
// shadow in lockstep: NIC-path writes, CPU-path stores, partial flushes, and
// power failures. After every operation the live image, the durable image,
// and the dirty-byte count must agree; a Flush must also report the same
// persisted-byte count (the store-MR drain accounting gFLUSH latency is
// charged from).
func CheckNVM(seed int64, n int) Report {
	const name = "nvm"
	const size = 512
	r := sim.NewRand(seed)
	dev := nvm.New(size)
	shadow := newShadowDevice(size)
	metrics := map[string]float64{"ops": float64(n)}
	detail := fmt.Sprintf("%d random ops over %d bytes", n, size)

	data := make([]byte, size)
	for op := 0; op < n; op++ {
		off := r.Intn(size)
		length := r.Intn(size - off + 1)
		payload := data[:length]
		for i := range payload {
			payload[i] = byte(r.Uint64())
		}
		var step string
		switch r.Intn(6) {
		case 0, 1, 3: // NIC-path write: visible, volatile until flushed
			step = fmt.Sprintf("Write(%d, %d bytes)", off, length)
			dev.Write(off, payload)
			shadow.write(off, payload)
		case 2: // CPU-path store: durable at once, supersedes dirty lines
			step = fmt.Sprintf("Store(%d, %d bytes)", off, length)
			dev.Store(off, payload)
			shadow.store(off, payload)
		case 4: // partial flush: persisted counts must match exactly
			step = fmt.Sprintf("Flush(%d, %d)", off, length)
			got := dev.Flush(off, length)
			want := shadow.flush(off, length)
			if got != want {
				return failf(name, detail, metrics, "op %d %s persisted %d bytes, shadow %d",
					op, step, got, want)
			}
		default: // power failure: dirty bytes revert, flushed bytes survive
			step = "PowerFail()"
			dev.PowerFail()
			shadow.powerFail()
		}
		if err := compareNVM(dev, shadow, size); err != nil {
			return failf(name, detail, metrics, "op %d after %s: %v", op, step, err)
		}
	}
	// Terminal drain: both models end fully durable and clean.
	if got, want := dev.FlushAll(), shadow.flush(0, size); got != want {
		return failf(name, detail, metrics, "final FlushAll persisted %d bytes, shadow %d", got, want)
	}
	if err := compareNVM(dev, shadow, size); err != nil {
		return failf(name, detail, metrics, "after final FlushAll: %v", err)
	}
	if dev.DirtyBytes() != 0 {
		return failf(name, detail, metrics, "%d dirty bytes after FlushAll", dev.DirtyBytes())
	}
	return Report{Name: name, Detail: detail, Metrics: metrics}
}

func compareNVM(dev *nvm.Device, shadow *shadowDevice, size int) error {
	if got := dev.Read(0, size); !bytes.Equal(got, shadow.volatile) {
		return fmt.Errorf("live image diverged at byte %d", firstDiff(got, shadow.volatile))
	}
	if got := dev.DurableRead(0, size); !bytes.Equal(got, shadow.durable) {
		return fmt.Errorf("durable image diverged at byte %d", firstDiff(got, shadow.durable))
	}
	if got, want := dev.DirtyBytes(), shadow.dirtyBytes(); got != want {
		return fmt.Errorf("dirty-byte count %d, shadow %d", got, want)
	}
	return nil
}

func firstDiff(a, b []byte) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}
