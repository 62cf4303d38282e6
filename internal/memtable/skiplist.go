// Package memtable provides a deterministic Skiplist: the ordered
// in-memory table behind both storage engines (the analogue of RocksDB's
// memtable and the docstore's primary index). Tower heights come from a
// seeded generator so simulation runs are reproducible.
package memtable

import "hyperloop/internal/sim"

// Skiplist geometry.
const (
	maxLevel = 16
	// branching probability 1/4, expressed against a 30-bit draw.
	levelProb = 1 << 28 // p = 0.25 of (1<<30)
)

type node struct {
	key   string
	value []byte
	next  [maxLevel]*node
}

// Skiplist is a deterministic ordered map from string keys to byte values.
type Skiplist struct {
	head  *node
	level int
	count int
	r     *sim.Rand
}

// Len returns the number of live keys.
func (s *Skiplist) Len() int { return s.count }

// New creates an empty skiplist using r for tower heights.
func New(r *sim.Rand) *Skiplist {
	return &Skiplist{head: &node{}, level: 1, r: r}
}

func (s *Skiplist) randomLevel() int {
	lvl := 1
	for lvl < maxLevel && s.r.Intn(1<<30) < levelProb {
		lvl++
	}
	return lvl
}

// findPredecessors fills prev with the rightmost node before key at every
// level and returns the candidate node (which may or may not match key).
func (s *Skiplist) findPredecessors(key string, prev *[maxLevel]*node) *node {
	x := s.head
	for i := s.level - 1; i >= 0; i-- {
		for x.next[i] != nil && x.next[i].key < key {
			x = x.next[i]
		}
		prev[i] = x
	}
	return x.next[0]
}

// Put inserts or replaces key's value, keeping value itself. It returns
// true for a fresh insert.
func (s *Skiplist) Put(key string, value []byte) bool {
	var prev [maxLevel]*node
	if n := s.findPredecessors(key, &prev); n != nil && n.key == key {
		n.value = value
		return false
	}
	s.insert(key, value, &prev)
	return true
}

// PutCopy is Put of a private copy of value, in one walk: an existing key's
// buffer is overwritten in place when its capacity suffices, otherwise the
// key gets a fresh, never-nil copy. A value Get or Scan returned for key
// aliases that buffer, so it is valid only until the next write to key.
func (s *Skiplist) PutCopy(key string, value []byte) bool {
	var prev [maxLevel]*node
	if n := s.findPredecessors(key, &prev); n != nil && n.key == key {
		if n.value != nil && cap(n.value) >= len(value) {
			n.value = n.value[:len(value)]
			copy(n.value, value)
		} else {
			n.value = clone(value)
		}
		return false
	}
	s.insert(key, clone(value), &prev)
	return true
}

// clone returns a private, never-nil copy of b.
func clone(b []byte) []byte { return append(make([]byte, 0, len(b)), b...) }

// insert links a new node for key after the predecessors prev holds.
func (s *Skiplist) insert(key string, value []byte, prev *[maxLevel]*node) {
	lvl := s.randomLevel()
	if lvl > s.level {
		for i := s.level; i < lvl; i++ {
			prev[i] = s.head
		}
		s.level = lvl
	}
	n := &node{key: key, value: value}
	for i := 0; i < lvl; i++ {
		n.next[i] = prev[i].next[i]
		prev[i].next[i] = n
	}
	s.count++
}

// get returns the value for key.
func (s *Skiplist) Get(key string) ([]byte, bool) {
	x := s.head
	for i := s.level - 1; i >= 0; i-- {
		for x.next[i] != nil && x.next[i].key < key {
			x = x.next[i]
		}
	}
	x = x.next[0]
	if x != nil && x.key == key {
		return x.value, true
	}
	return nil, false
}

// del removes key, reporting whether it was present.
func (s *Skiplist) Del(key string) bool {
	var prev [maxLevel]*node
	n := s.findPredecessors(key, &prev)
	if n == nil || n.key != key {
		return false
	}
	for i := 0; i < s.level; i++ {
		if prev[i].next[i] == n {
			prev[i].next[i] = n.next[i]
		}
	}
	for s.level > 1 && s.head.next[s.level-1] == nil {
		s.level--
	}
	s.count--
	return true
}

// scan returns up to limit pairs with key >= start, in order.
func (s *Skiplist) Scan(start string, limit int) []KV {
	var prev [maxLevel]*node
	n := s.findPredecessors(start, &prev)
	out := make([]KV, 0, limit)
	for n != nil && len(out) < limit {
		out = append(out, KV{Key: n.key, Value: n.value})
		n = n.next[0]
	}
	return out
}

// KV is a key-value pair returned by scans.
type KV struct {
	Key   string
	Value []byte
}
