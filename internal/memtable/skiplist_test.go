package memtable

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"

	"hyperloop/internal/sim"
)

func TestBasic(t *testing.T) {
	s := New(sim.NewRand(1))
	if _, ok := s.Get("missing"); ok {
		t.Fatal("empty list returned a value")
	}
	if !s.Put("b", []byte("2")) {
		t.Fatal("fresh insert reported as replace")
	}
	if s.Put("b", []byte("22")) {
		t.Fatal("replace reported as insert")
	}
	s.Put("a", []byte("1"))
	s.Put("c", []byte("3"))
	if v, ok := s.Get("b"); !ok || string(v) != "22" {
		t.Fatalf("get b = %q %v", v, ok)
	}
	if s.Len() != 3 {
		t.Fatalf("len = %d", s.Len())
	}
	if !s.Del("b") || s.Del("b") {
		t.Fatal("delete semantics wrong")
	}
	if _, ok := s.Get("b"); ok {
		t.Fatal("deleted key still present")
	}
}

func TestOrderedScan(t *testing.T) {
	s := New(sim.NewRand(2))
	for i := 99; i >= 0; i-- {
		s.Put(fmt.Sprintf("key%03d", i), []byte{byte(i)})
	}
	out := s.Scan("key010", 5)
	if len(out) != 5 {
		t.Fatalf("scan returned %d", len(out))
	}
	for i, kv := range out {
		want := fmt.Sprintf("key%03d", 10+i)
		if kv.Key != want {
			t.Fatalf("scan[%d] = %s, want %s", i, kv.Key, want)
		}
	}
	if got := s.Scan("key999", 5); len(got) != 0 {
		t.Fatalf("scan past end returned %d", len(got))
	}
}

func TestScanFromEmptyPrefix(t *testing.T) {
	s := New(sim.NewRand(4))
	s.Put("b", []byte("x"))
	out := s.Scan("", 10)
	if len(out) != 1 || out[0].Key != "b" {
		t.Fatalf("scan from empty prefix: %+v", out)
	}
}

func TestPropertyMatchesMap(t *testing.T) {
	f := func(ops []struct {
		Key byte
		Del bool
	}) bool {
		s := New(sim.NewRand(3))
		shadow := map[string][]byte{}
		for i, op := range ops {
			k := fmt.Sprintf("k%d", op.Key%32)
			if op.Del {
				s.Del(k)
				delete(shadow, k)
			} else {
				v := []byte{byte(i)}
				s.Put(k, v)
				shadow[k] = v
			}
		}
		if s.Len() != len(shadow) {
			return false
		}
		for k, v := range shadow {
			got, ok := s.Get(k)
			if !ok || !bytes.Equal(got, v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyScanIsSorted(t *testing.T) {
	f := func(keys []uint16) bool {
		s := New(sim.NewRand(5))
		for _, k := range keys {
			s.Put(fmt.Sprintf("%05d", k), []byte("v"))
		}
		out := s.Scan("", len(keys)+1)
		for i := 1; i < len(out); i++ {
			if out[i-1].Key >= out[i].Key {
				return false
			}
		}
		return len(out) == s.Len()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// PutCopy keeps a private copy: an overwrite that fits reuses the key's
// buffer (so an earlier Get result sees the new bytes), one that does not
// gets a fresh buffer, and the caller's slice is never retained.
func TestPutCopyOverwritesInPlace(t *testing.T) {
	s := New(sim.NewRand(3))
	src := []byte("abcdef")
	if !s.PutCopy("k", src) {
		t.Fatal("fresh insert reported as replace")
	}
	src[0] = 'X'
	old, _ := s.Get("k")
	if string(old) != "abcdef" {
		t.Fatalf("memtable aliases the caller's slice: %q", old)
	}
	if s.PutCopy("k", []byte("xyz")) {
		t.Fatal("replace reported as insert")
	}
	v, _ := s.Get("k")
	if string(v) != "xyz" || &v[0] != &old[0] {
		t.Fatalf("fitting overwrite = %q, same buffer %v", v, &v[0] == &old[0])
	}
	s.PutCopy("k", []byte("longer than six"))
	if v2, _ := s.Get("k"); string(v2) != "longer than six" || string(v) != "xyz" {
		t.Fatalf("growing overwrite = %q, old buffer now %q", v2, v)
	}
}

// An empty value is a value: it reads back non-nil with ok, whether it was
// inserted fresh or overwrote a longer one.
func TestPutCopyEmptyValueNonNil(t *testing.T) {
	s := New(sim.NewRand(4))
	s.PutCopy("fresh", nil)
	s.PutCopy("over", []byte("payload"))
	s.PutCopy("over", []byte{})
	for _, k := range []string{"fresh", "over"} {
		if v, ok := s.Get(k); !ok || v == nil || len(v) != 0 {
			t.Fatalf("Get(%q) = %v (nil %v), %v", k, v, v == nil, ok)
		}
	}
}
