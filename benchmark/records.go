package main

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"tdb"
)

// Persistent class ids of the benchmark's records.
const (
	classLicence tdb.ClassID = 9101
	classAccount tdb.ClassID = 9102
	classTeller  tdb.ClassID = 9103
	classBranch  tdb.ClassID = 9104
	classHistory tdb.ClassID = 9105
)

// payloadBytes sizes a Licence payload so the pickled record is 1 KiB
// (8 + 8 + 4 + 1004).
const payloadBytes = 1004

// Licence is the record every workload but tpcb stores: an indexed id, an
// issue stamp monotonic with insertion (so a B-tree on it is physically
// sequential in a fresh log), and a self-checking payload.
//
// Payload layout: revision (8 bytes, counts the updates applied to this
// record), checksum (4 bytes), filler. The checksum binds the filler to the
// record's id and revision, so a read that returns another record's bytes,
// a stale version after an acknowledged update, or torn plaintext fails.
type Licence struct {
	ID      int64
	Issued  int64
	Payload []byte
}

func (l *Licence) ClassID() tdb.ClassID { return classLicence }

func (l *Licence) Pickle(p *tdb.Pickler) {
	p.Int64(l.ID)
	p.Int64(l.Issued)
	p.BytesVal(l.Payload)
}

func (l *Licence) Unpickle(u *tdb.Unpickler) error {
	l.ID = u.Int64()
	l.Issued = u.Int64()
	l.Payload = u.BytesVal()
	return u.Err()
}

// splitmix64 is the seeded generator behind payload filler; it keeps record
// contents a pure function of (seed, id).
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func payloadSum(id int64, rev uint64, filler []byte) uint32 {
	state := uint64(id)*0x9e3779b97f4a7c15 ^ rev
	return crc32.ChecksumIEEE(filler) ^ uint32(splitmix64(&state))
}

// newLicence builds record id with a filler drawn from seed.
func newLicence(seed, id int64) *Licence {
	p := make([]byte, payloadBytes)
	state := uint64(seed)<<20 ^ uint64(id)
	for off := 12; off+8 <= len(p); off += 8 {
		binary.LittleEndian.PutUint64(p[off:], splitmix64(&state))
	}
	binary.BigEndian.PutUint32(p[8:], payloadSum(id, 0, p[12:]))
	return &Licence{ID: id, Issued: id, Payload: p}
}

// revision is the number of updates applied to the record.
func (l *Licence) revision() uint64 { return binary.BigEndian.Uint64(l.Payload) }

// bump applies one update: a fresh payload slice (the stored one may be
// shared with a cached version) carrying the next revision and its checksum.
func (l *Licence) bump() {
	p := append([]byte(nil), l.Payload...)
	rev := binary.BigEndian.Uint64(p) + 1
	binary.BigEndian.PutUint64(p, rev)
	binary.BigEndian.PutUint32(p[8:], payloadSum(l.ID, rev, p[12:]))
	l.Payload = p
}

// check validates the record against the key it was looked up by.
func (l *Licence) check(id int64) error {
	if l.ID != id {
		return fmt.Errorf("licence %d: lookup returned id %d", id, l.ID)
	}
	if len(l.Payload) != payloadBytes {
		return fmt.Errorf("licence %d: payload %d bytes", id, len(l.Payload))
	}
	want := payloadSum(id, l.revision(), l.Payload[12:])
	if got := binary.BigEndian.Uint32(l.Payload[8:]); got != want {
		return fmt.Errorf("licence %d: payload checksum %08x, want %08x", id, got, want)
	}
	return nil
}

// TPC-B rows (paper Figure 9): 100-byte records with 4-byte ids.
const tpcbRowBytes = 100

type balanceRow struct {
	ID      int32
	Balance int64
}

// row gives the TPC-B driver one view of the three balance tables.
func (r *balanceRow) row() *balanceRow { return r }

func (r *balanceRow) pickle(p *tdb.Pickler) {
	p.Int32(r.ID)
	p.Int64(r.Balance)
	p.RawBytes(make([]byte, tpcbRowBytes-12))
}

func (r *balanceRow) unpickle(u *tdb.Unpickler) error {
	r.ID = u.Int32()
	r.Balance = u.Int64()
	u.RawBytes(tpcbRowBytes - 12)
	return u.Err()
}

type Account struct{ balanceRow }
type Teller struct{ balanceRow }
type Branch struct{ balanceRow }

func (a *Account) ClassID() tdb.ClassID            { return classAccount }
func (a *Account) Pickle(p *tdb.Pickler)           { a.pickle(p) }
func (a *Account) Unpickle(u *tdb.Unpickler) error { return a.unpickle(u) }
func (t *Teller) ClassID() tdb.ClassID             { return classTeller }
func (t *Teller) Pickle(p *tdb.Pickler)            { t.pickle(p) }
func (t *Teller) Unpickle(u *tdb.Unpickler) error  { return t.unpickle(u) }
func (b *Branch) ClassID() tdb.ClassID             { return classBranch }
func (b *Branch) Pickle(p *tdb.Pickler)            { b.pickle(p) }
func (b *Branch) Unpickle(u *tdb.Unpickler) error  { return b.unpickle(u) }

// History is the TPC-B audit row appended by every transaction.
type History struct {
	Seq                     int64
	Account, Teller, Branch int32
	Delta                   int64
}

func (h *History) ClassID() tdb.ClassID { return classHistory }

func (h *History) Pickle(p *tdb.Pickler) {
	p.Int64(h.Seq)
	p.Int32(h.Account)
	p.Int32(h.Teller)
	p.Int32(h.Branch)
	p.Int64(h.Delta)
	p.RawBytes(make([]byte, tpcbRowBytes-28))
}

func (h *History) Unpickle(u *tdb.Unpickler) error {
	h.Seq = u.Int64()
	h.Account = u.Int32()
	h.Teller = u.Int32()
	h.Branch = u.Int32()
	h.Delta = u.Int64()
	u.RawBytes(tpcbRowBytes - 28)
	return u.Err()
}

func newRegistry() *tdb.Registry {
	reg := tdb.NewRegistry()
	reg.Register(classLicence, func() tdb.Object { return &Licence{} })
	reg.Register(classAccount, func() tdb.Object { return &Account{} })
	reg.Register(classTeller, func() tdb.Object { return &Teller{} })
	reg.Register(classBranch, func() tdb.Object { return &Branch{} })
	reg.Register(classHistory, func() tdb.Object { return &History{} })
	return reg
}
