package chunkstore

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"
)

// entry is one slot of a location map node. In a leaf (level 0) it places a
// data chunk; in an inner node it places a child map node. The hash makes
// the map a Merkle tree: a leaf entry holds the hash of the chunk's stored
// (encrypted) record payload, an inner entry holds the hash of the child
// node's serialized content. Embedding the hash tree in the location map is
// what makes tamper detection free of extra traversals (paper §3.2.1).
type entry struct {
	loc  Location
	hash []byte
}

func (e entry) isEmpty() bool { return e.loc.IsZero() && e.hash == nil }

// mapNode is an in-memory location map node.
type mapNode struct {
	level int
	index uint64
	// entries has fanout slots; empty slots are zero entries.
	entries []entry
	// kids caches loaded children (inner nodes only).
	kids     []*mapNode
	kidCount int
	// dirty reports that the content differs from the stored copy at loc
	// (or that there is no stored copy yet).
	dirty bool
	// hashStale invalidates the memoized hash after mutations.
	hashStale bool
	hash      []byte
	// loc is the location of the last stored copy (zero if never stored).
	loc Location
	// shared marks nodes frozen by a snapshot: mutations must clone.
	shared bool
	// ref is the node's CLOCK reference bit (see locMap.sweep): set by
	// every walk that reaches the node, cleared by the sweep's hand. It is
	// atomic because readers holding the store mutex shared set it too.
	ref atomic.Bool
	// slot is the node's index in the locMap's ring while it is resident.
	slot int
}

func newMapNode(level int, index uint64, fanout int) *mapNode {
	n := &mapNode{
		level:     level,
		index:     index,
		entries:   make([]entry, fanout),
		dirty:     true,
		hashStale: true,
	}
	if level > 0 {
		n.kids = make([]*mapNode, fanout)
	}
	return n
}

// touch sets the reference bit. Loading it first keeps a hot node's cache
// line shared among the readers that find the bit already set.
func (n *mapNode) touch() {
	if !n.ref.Load() {
		n.ref.Store(true)
	}
}

// clone returns a mutable copy for copy-on-write snapshots. The clone shares
// child node objects (they are cloned lazily when mutated themselves).
func (n *mapNode) clone() *mapNode {
	c := &mapNode{
		level:     n.level,
		index:     n.index,
		entries:   append([]entry(nil), n.entries...),
		kidCount:  n.kidCount,
		dirty:     n.dirty,
		hashStale: n.hashStale,
		hash:      n.hash,
		loc:       n.loc,
	}
	if n.kids != nil {
		c.kids = append([]*mapNode(nil), n.kids...)
	}
	return c
}

// memSize approximates the node's in-memory footprint for cache accounting.
func (n *mapNode) memSize(hashSize int) int64 {
	return int64(96 + len(n.entries)*(24+hashSize) + len(n.kids)*8)
}

// serialize encodes the node deterministically:
//
//	level(1) | index(8) | count(2) | entries…
//
// where each non-empty entry is idx(2) | seg(8) | off(4) | len(4) |
// hashLen(1) | hash. The node hash is computed over this serialization.
func (n *mapNode) serialize() []byte {
	count := 0
	for _, e := range n.entries {
		if !e.isEmpty() {
			count++
		}
	}
	size := 1 + 8 + 2
	for _, e := range n.entries {
		if !e.isEmpty() {
			size += 2 + 8 + 4 + 4 + 1 + len(e.hash)
		}
	}
	out := make([]byte, 0, size)
	out = append(out, byte(n.level))
	out = binary.BigEndian.AppendUint64(out, n.index)
	out = binary.BigEndian.AppendUint16(out, uint16(count))
	for i, e := range n.entries {
		if e.isEmpty() {
			continue
		}
		out = binary.BigEndian.AppendUint16(out, uint16(i))
		out = binary.BigEndian.AppendUint64(out, e.loc.Seg)
		out = binary.BigEndian.AppendUint32(out, e.loc.Off)
		out = binary.BigEndian.AppendUint32(out, e.loc.Len)
		out = append(out, byte(len(e.hash)))
		out = append(out, e.hash...)
	}
	return out
}

// deserializeMapNode reconstructs a node from its serialization.
func deserializeMapNode(data []byte, fanout int) (*mapNode, error) {
	if len(data) < 11 {
		return nil, fmt.Errorf("%w: short map node serialization (%d bytes)", ErrTampered, len(data))
	}
	level := int(data[0])
	index := binary.BigEndian.Uint64(data[1:9])
	count := int(binary.BigEndian.Uint16(data[9:11]))
	n := newMapNode(level, index, fanout)
	n.dirty = false
	n.hashStale = true
	pos := 11
	for i := 0; i < count; i++ {
		if pos+19 > len(data) {
			return nil, fmt.Errorf("%w: truncated map node entry %d", ErrTampered, i)
		}
		idx := int(binary.BigEndian.Uint16(data[pos : pos+2]))
		if idx >= fanout {
			return nil, fmt.Errorf("%w: map node entry index %d exceeds fanout %d", ErrTampered, idx, fanout)
		}
		var e entry
		e.loc.Seg = binary.BigEndian.Uint64(data[pos+2 : pos+10])
		e.loc.Off = binary.BigEndian.Uint32(data[pos+10 : pos+14])
		e.loc.Len = binary.BigEndian.Uint32(data[pos+14 : pos+18])
		hashLen := int(data[pos+18])
		pos += 19
		if pos+hashLen > len(data) {
			return nil, fmt.Errorf("%w: truncated map node entry hash %d", ErrTampered, i)
		}
		e.hash = append([]byte(nil), data[pos:pos+hashLen]...)
		pos += hashLen
		n.entries[idx] = e
	}
	if pos != len(data) {
		return nil, fmt.Errorf("%w: %d trailing bytes in map node serialization", ErrTampered, len(data)-pos)
	}
	return n, nil
}
