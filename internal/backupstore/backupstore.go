// Package backupstore implements TDB's backup store (paper §2, Figure 1):
// it creates full and incremental database backups on an archival store and
// securely restores them.
//
// Backups are created from chunk store snapshots, which freeze a consistent
// committed state by copy-on-write over the location map; incremental
// backups contain only the chunks that changed since the base snapshot,
// discovered by diffing the two snapshots' Merkle trees (paper §3.2.1:
// "the location map snapshots can be efficiently compared, which allows
// creation of incremental backups"). Chunks travel in their stored
// (encrypted) form, so backups are as unreadable to the attacker as the
// database itself.
//
// The restore path enforces the paper's guarantees: "the backup store
// restores only valid backups. In addition, it restores incremental backups
// in the same sequence as they were created." Every stream carries a MACed
// header and a MAC over its entire content; an incremental additionally
// names the exact state it applies on top of.
package backupstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"tdb/internal/chunkstore"
	"tdb/internal/platform"
	"tdb/internal/sec"
)

// Errors returned by the backup store.
var (
	// ErrInvalidBackup is the validation failure signal: the stream is
	// malformed, fails authentication, or belongs to a different database.
	ErrInvalidBackup = errors.New("backupstore: invalid backup")
	// ErrSequence is returned when incremental backups are restored out of
	// order or on top of the wrong base state.
	ErrSequence = errors.New("backupstore: backup out of sequence")
)

const (
	backupMagic   = uint64(0x5444425242550001) // "TDBBKU\x00\x01"
	formatVersion = 1

	kindFull        = byte(1)
	kindIncremental = byte(2)

	entryPut    = byte(1)
	entryDelete = byte(2)
	entryEnd    = byte(3)
)

// Info describes a backup stream.
type Info struct {
	// Name is the stream name in the archival store.
	Name string
	// Full reports whether this is a full backup.
	Full bool
	// Seq is the database commit sequence the backup captures.
	Seq uint64
	// BaseSeq is the sequence the backup applies on top of (0 for full).
	BaseSeq uint64
	// Chunks is the number of entries in the backup.
	Chunks int
}

// Manager creates backups of one chunk store and tracks the backup chain so
// that incrementals always extend the latest backup.
type Manager struct {
	cs    *chunkstore.Store
	arch  platform.ArchivalStore
	suite sec.Suite

	// lastSnap is the snapshot of the most recent backup, retained for fast
	// incremental diffs; lastIndex maps chunk id to content hash as of that
	// backup (used to detect changes when no snapshot is retained).
	lastSnap *chunkstore.Snapshot
	lastSeq  uint64
	haveBase bool
}

// NewManager creates a backup manager for the given store and archive. The
// suite must be the one the store was opened with.
func NewManager(cs *chunkstore.Store, arch platform.ArchivalStore, suite sec.Suite) *Manager {
	return &Manager{cs: cs, arch: arch, suite: suite}
}

// streamName builds the canonical stream name.
func streamName(seq uint64, full bool) string {
	kind := "incr"
	if full {
		kind = "full"
	}
	return fmt.Sprintf("backup-%016d-%s", seq, kind)
}

// parseStreamName reverses streamName.
func parseStreamName(name string) (seq uint64, full bool, ok bool) {
	rest, found := strings.CutPrefix(name, "backup-")
	if !found {
		return 0, false, false
	}
	parts := strings.SplitN(rest, "-", 2)
	if len(parts) != 2 {
		return 0, false, false
	}
	n, err := strconv.ParseUint(parts[0], 10, 64)
	if err != nil {
		return 0, false, false
	}
	switch parts[1] {
	case "full":
		return n, true, true
	case "incr":
		return n, false, true
	}
	return 0, false, false
}

// Full creates a full backup of the current committed state.
func (m *Manager) Full() (Info, error) {
	snap, err := m.cs.TakeSnapshot()
	if err != nil {
		return Info{}, err
	}
	info, err := m.writeBackup(snap, nil)
	if err != nil {
		snap.Close()
		return Info{}, err
	}
	m.retain(snap, info.Seq)
	return info, nil
}

// Incremental creates an incremental backup containing the changes since
// the most recent backup taken through this manager. Without a prior
// backup it falls back to a full backup. If nothing was committed since the
// last backup, no stream is written and the returned Info has an empty Name
// and zero Chunks. (The empty durable commit with which a backup hardens a
// nondurable state counts as a commit: the next incremental then writes a
// stream of zero chunks.)
func (m *Manager) Incremental() (Info, error) {
	if !m.haveBase {
		return m.Full()
	}
	snap, err := m.cs.TakeSnapshot()
	if err != nil {
		return Info{}, err
	}
	if snap.Seq() == m.lastSeq {
		snap.Close()
		return Info{Seq: m.lastSeq, BaseSeq: m.lastSeq}, nil
	}
	info, err := m.writeBackup(snap, m.lastSnap)
	if err != nil {
		snap.Close()
		return Info{}, err
	}
	m.retain(snap, info.Seq)
	return info, nil
}

// retain swaps the retained base snapshot.
func (m *Manager) retain(snap *chunkstore.Snapshot, seq uint64) {
	if m.lastSnap != nil {
		m.lastSnap.Close()
	}
	m.lastSnap = snap
	m.lastSeq = seq
	m.haveBase = true
}

// Close releases the retained snapshot.
func (m *Manager) Close() {
	if m.lastSnap != nil {
		m.lastSnap.Close()
		m.lastSnap = nil
	}
	m.haveBase = false
}

// writeBackup streams a backup of snap (full when base is nil, else the
// diff base→snap) to the archive. It hardens snap's commit before writing
// anything: a backup covers only state no crash can drop. A backup of a
// nondurable commit that a crash then lost would carry a commit sequence
// the reopened store reuses for different state, and Chain, which ranks
// full backups by sequence, would prefer the stale stream to every later
// one.
func (m *Manager) writeBackup(snap, base *chunkstore.Snapshot) (Info, error) {
	if err := snap.Harden(); err != nil {
		return Info{}, err
	}
	full := base == nil
	seq := snap.Seq()
	baseSeq := uint64(0)
	if !full {
		baseSeq = base.Seq()
	}
	name := streamName(seq, full)
	w, err := m.arch.CreateStream(name)
	if err != nil {
		return Info{}, err
	}
	bw := newBackupWriter(w, m.suite)
	if err := bw.writeHeader(full, seq, baseSeq, snap.Counter(), snap.RootHash()); err != nil {
		w.Close()
		return Info{}, err
	}
	count := 0
	if full {
		err = snap.ForEach(func(cid chunkstore.ChunkID, hash, ciphertext []byte) error {
			count++
			return bw.writeEntry(entryPut, cid, ciphertext)
		})
	} else {
		err = snap.Diff(base, func(ch chunkstore.DiffChange) error {
			count++
			if ch.Deleted {
				return bw.writeEntry(entryDelete, ch.CID, nil)
			}
			return bw.writeEntry(entryPut, ch.CID, ch.Ciphertext)
		})
	}
	if err != nil {
		w.Close()
		return Info{}, err
	}
	if err := bw.writeTrailer(); err != nil {
		w.Close()
		return Info{}, err
	}
	if err := w.Close(); err != nil {
		return Info{}, err
	}
	return Info{Name: name, Full: full, Seq: seq, BaseSeq: baseSeq, Chunks: count}, nil
}

// backupWriter frames and authenticates a backup stream. Everything written
// is folded into a running MAC whose value forms the trailer.
type backupWriter struct {
	w     io.Writer
	suite sec.Suite
	// body accumulates all framed bytes for the trailer MAC. DRM databases
	// are small (paper §1), so buffering the MAC input is acceptable; the
	// bytes themselves are streamed out immediately.
	macInput []byte
}

func newBackupWriter(w io.Writer, suite sec.Suite) *backupWriter {
	return &backupWriter{w: w, suite: suite}
}

func (bw *backupWriter) emit(p []byte) error {
	bw.macInput = append(bw.macInput, p...)
	_, err := bw.w.Write(p)
	return err
}

func (bw *backupWriter) writeHeader(full bool, seq, baseSeq, counter uint64, rootHash []byte) error {
	kind := kindIncremental
	if full {
		kind = kindFull
	}
	hdr := make([]byte, 0, 64)
	hdr = binary.BigEndian.AppendUint64(hdr, backupMagic)
	hdr = binary.BigEndian.AppendUint16(hdr, formatVersion)
	hdr = append(hdr, kind)
	name := bw.suite.Name()
	hdr = append(hdr, byte(len(name)))
	hdr = append(hdr, name...)
	hdr = binary.BigEndian.AppendUint64(hdr, seq)
	hdr = binary.BigEndian.AppendUint64(hdr, baseSeq)
	hdr = binary.BigEndian.AppendUint64(hdr, counter)
	hdr = append(hdr, byte(len(rootHash)))
	hdr = append(hdr, rootHash...)
	mac := bw.suite.MAC(hdr)
	framed := make([]byte, 0, 4+len(hdr)+2+len(mac))
	framed = binary.BigEndian.AppendUint32(framed, uint32(len(hdr)))
	framed = append(framed, hdr...)
	framed = binary.BigEndian.AppendUint16(framed, uint16(len(mac)))
	framed = append(framed, mac...)
	return bw.emit(framed)
}

func (bw *backupWriter) writeEntry(kind byte, cid chunkstore.ChunkID, ciphertext []byte) error {
	rec := make([]byte, 0, 13+len(ciphertext))
	rec = append(rec, kind)
	rec = binary.BigEndian.AppendUint64(rec, uint64(cid))
	rec = binary.BigEndian.AppendUint32(rec, uint32(len(ciphertext)))
	rec = append(rec, ciphertext...)
	return bw.emit(rec)
}

func (bw *backupWriter) writeTrailer() error {
	end := []byte{entryEnd}
	if err := bw.emit(end); err != nil {
		return err
	}
	mac := bw.suite.MAC(bw.macInput)
	out := make([]byte, 0, 2+len(mac))
	out = binary.BigEndian.AppendUint16(out, uint16(len(mac)))
	out = append(out, mac...)
	_, err := bw.w.Write(out)
	return err
}

// header is a decoded backup stream header.
type header struct {
	full     bool
	suite    string
	seq      uint64
	baseSeq  uint64
	counter  uint64
	rootHash []byte
}

// readAll drains a stream.
func readAll(r io.Reader) ([]byte, error) {
	return io.ReadAll(r)
}

// parseBackup validates a raw backup stream end to end and decodes it. The
// trailer MAC is checked before any entry is returned, so tampering
// anywhere in the stream invalidates the whole backup.
func parseBackup(raw []byte, suite sec.Suite) (header, []entry, error) {
	var h header
	if len(raw) < 6 {
		return h, nil, fmt.Errorf("%w: truncated stream", ErrInvalidBackup)
	}
	hdrLen := int(binary.BigEndian.Uint32(raw[0:4]))
	if len(raw) < 4+hdrLen+2 {
		return h, nil, fmt.Errorf("%w: truncated header", ErrInvalidBackup)
	}
	hdr := raw[4 : 4+hdrLen]
	p := 4 + hdrLen
	macLen := int(binary.BigEndian.Uint16(raw[p : p+2]))
	if len(raw) < p+2+macLen {
		return h, nil, fmt.Errorf("%w: truncated header MAC", ErrInvalidBackup)
	}
	hdrMac := raw[p+2 : p+2+macLen]
	if !sec.VerifyMAC(suite, hdr, hdrMac) {
		return h, nil, fmt.Errorf("%w: header fails authentication", ErrInvalidBackup)
	}
	// Decode the header.
	if len(hdr) < 12 || binary.BigEndian.Uint64(hdr[0:8]) != backupMagic {
		return h, nil, fmt.Errorf("%w: bad magic", ErrInvalidBackup)
	}
	if binary.BigEndian.Uint16(hdr[8:10]) != formatVersion {
		return h, nil, fmt.Errorf("%w: unsupported version", ErrInvalidBackup)
	}
	switch hdr[10] {
	case kindFull:
		h.full = true
	case kindIncremental:
		h.full = false
	default:
		return h, nil, fmt.Errorf("%w: unknown kind %d", ErrInvalidBackup, hdr[10])
	}
	q := 11
	nameLen := int(hdr[q])
	q++
	if len(hdr) < q+nameLen+25 {
		return h, nil, fmt.Errorf("%w: truncated header fields", ErrInvalidBackup)
	}
	h.suite = string(hdr[q : q+nameLen])
	q += nameLen
	h.seq = binary.BigEndian.Uint64(hdr[q : q+8])
	h.baseSeq = binary.BigEndian.Uint64(hdr[q+8 : q+16])
	h.counter = binary.BigEndian.Uint64(hdr[q+16 : q+24])
	hashLen := int(hdr[q+24])
	q += 25
	if len(hdr) < q+hashLen {
		return h, nil, fmt.Errorf("%w: truncated root hash", ErrInvalidBackup)
	}
	h.rootHash = append([]byte(nil), hdr[q:q+hashLen]...)
	if h.suite != suite.Name() {
		return h, nil, fmt.Errorf("%w: backup uses suite %q, restore uses %q", ErrInvalidBackup, h.suite, suite.Name())
	}

	// Walk entries to find the end marker, then verify the trailer MAC over
	// everything before it.
	pos := p + 2 + macLen
	var entries []entry
	for {
		if pos >= len(raw) {
			return h, nil, fmt.Errorf("%w: missing end marker", ErrInvalidBackup)
		}
		kind := raw[pos]
		if kind == entryEnd {
			pos++
			break
		}
		if kind != entryPut && kind != entryDelete {
			return h, nil, fmt.Errorf("%w: unknown entry kind %d", ErrInvalidBackup, kind)
		}
		if pos+13 > len(raw) {
			return h, nil, fmt.Errorf("%w: truncated entry", ErrInvalidBackup)
		}
		cid := chunkstore.ChunkID(binary.BigEndian.Uint64(raw[pos+1 : pos+9]))
		n := int(binary.BigEndian.Uint32(raw[pos+9 : pos+13]))
		if pos+13+n > len(raw) {
			return h, nil, fmt.Errorf("%w: truncated entry payload", ErrInvalidBackup)
		}
		entries = append(entries, entry{
			kind:       kind,
			cid:        cid,
			ciphertext: raw[pos+13 : pos+13+n],
		})
		pos += 13 + n
	}
	if pos+2 > len(raw) {
		return h, nil, fmt.Errorf("%w: missing trailer", ErrInvalidBackup)
	}
	tLen := int(binary.BigEndian.Uint16(raw[pos : pos+2]))
	if pos+2+tLen > len(raw) {
		return h, nil, fmt.Errorf("%w: truncated trailer MAC", ErrInvalidBackup)
	}
	trailerMac := raw[pos+2 : pos+2+tLen]
	if !sec.VerifyMAC(suite, raw[:pos], trailerMac) {
		return h, nil, fmt.Errorf("%w: stream fails authentication", ErrInvalidBackup)
	}
	if rest := len(raw) - (pos + 2 + tLen); rest != 0 {
		return h, nil, fmt.Errorf("%w: %d trailing bytes", ErrInvalidBackup, rest)
	}
	return h, entries, nil
}

type entry struct {
	kind       byte
	cid        chunkstore.ChunkID
	ciphertext []byte
}

// ReadInfo validates a stored backup stream and returns its description.
func ReadInfo(arch platform.ArchivalStore, name string, suite sec.Suite) (Info, error) {
	r, err := arch.OpenStream(name)
	if err != nil {
		return Info{}, err
	}
	defer r.Close()
	raw, err := readAll(r)
	if err != nil {
		return Info{}, fmt.Errorf("%w: %v", ErrInvalidBackup, err)
	}
	h, entries, err := parseBackup(raw, suite)
	if err != nil {
		return Info{}, err
	}
	return Info{Name: name, Full: h.full, Seq: h.seq, BaseSeq: h.baseSeq, Chunks: len(entries)}, nil
}

// Chain returns the restoreable backup chain in the archive, in application
// order: the newest full backup followed by every incremental that extends
// it, each validated. Streams that fail validation are reported, not
// silently skipped.
func Chain(arch platform.ArchivalStore, suite sec.Suite) ([]Info, error) {
	names, err := arch.ListStreams()
	if err != nil {
		return nil, err
	}
	var infos []Info
	for _, n := range names {
		if _, _, ok := parseStreamName(n); !ok {
			continue
		}
		info, err := ReadInfo(arch, n, suite)
		if err != nil {
			return nil, fmt.Errorf("validating %q: %w", n, err)
		}
		infos = append(infos, info)
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].Seq < infos[j].Seq })
	// Find the newest full backup.
	lastFull := -1
	for i, info := range infos {
		if info.Full {
			lastFull = i
		}
	}
	if lastFull < 0 {
		return nil, fmt.Errorf("%w: no full backup in archive", ErrInvalidBackup)
	}
	chain := []Info{infos[lastFull]}
	prev := infos[lastFull].Seq
	for _, info := range infos[lastFull+1:] {
		if info.Full {
			continue
		}
		if info.Seq <= prev {
			// Redundant: the chain already covers this state (e.g., an
			// incremental taken just before a full backup of the same
			// commit).
			continue
		}
		if info.BaseSeq != prev {
			return nil, fmt.Errorf("%w: incremental %q has base %d, chain is at %d", ErrSequence, info.Name, info.BaseSeq, prev)
		}
		chain = append(chain, info)
		prev = info.Seq
	}
	return chain, nil
}

// Restore applies the named backup streams, in order, into the target chunk
// store (normally freshly formatted). The first stream must be a full
// backup; each subsequent stream must be the incremental created directly
// on top of the previous one. Every stream is fully validated before any of
// its content is applied.
func Restore(target *chunkstore.Store, arch platform.ArchivalStore, suite sec.Suite, names []string) error {
	var prevSeq uint64
	for i, name := range names {
		r, err := arch.OpenStream(name)
		if err != nil {
			return err
		}
		raw, err := readAll(r)
		r.Close()
		if err != nil {
			return fmt.Errorf("%w: %v", ErrInvalidBackup, err)
		}
		h, entries, err := parseBackup(raw, suite)
		if err != nil {
			return err
		}
		if i == 0 {
			if !h.full {
				return fmt.Errorf("%w: restore chain must start with a full backup", ErrSequence)
			}
		} else {
			if h.full {
				return fmt.Errorf("%w: full backup %q in the middle of a chain", ErrSequence, name)
			}
			if h.baseSeq != prevSeq {
				return fmt.Errorf("%w: %q applies on seq %d, previous stream ended at %d", ErrSequence, name, h.baseSeq, prevSeq)
			}
		}
		if err := applyEntries(target, suite, entries); err != nil {
			return err
		}
		prevSeq = h.seq
	}
	return nil
}

// applyEntries writes one validated backup's entries into the store in
// batched commits.
func applyEntries(target *chunkstore.Store, suite sec.Suite, entries []entry) error {
	const batchSize = 512
	for start := 0; start < len(entries); start += batchSize {
		batch := entries[start:min(start+batchSize, len(entries))]
		plains, err := decryptPuts(suite, batch)
		if err != nil {
			return err
		}
		b := target.NewBatch()
		for i, e := range batch {
			switch e.kind {
			case entryPut:
				b.RestoreWrite(e.cid, plains[i])
			case entryDelete:
				// The chunk may not exist in the target (it was created and
				// deleted between two incrementals); deallocate only ids the
				// store knows.
				b.Deallocate(e.cid)
			}
		}
		if err := target.Commit(b, false); err != nil {
			// Deallocate of unknown ids is a legitimate no-op during
			// restore; retry entry by entry, skipping those.
			if errors.Is(err, chunkstore.ErrNotAllocated) {
				if err := applyTolerant(target, batch, plains); err != nil {
					return err
				}
				continue
			}
			return err
		}
	}
	// One durable commit seals the stream's state.
	return target.Commit(target.NewBatch(), true)
}

// decryptPuts decrypts the put entries of one batch, each exactly once:
// Decrypt works in place, so an entry's ciphertext buffer holds its
// plaintext afterwards, and decrypting it again would scramble it. The
// result is indexed like entries; deletes get nil.
func decryptPuts(suite sec.Suite, entries []entry) ([][]byte, error) {
	plains := make([][]byte, len(entries))
	for i, e := range entries {
		if e.kind != entryPut {
			continue
		}
		plain, err := suite.Decrypt(e.ciphertext)
		if err != nil {
			return nil, fmt.Errorf("%w: chunk %d fails decryption", ErrInvalidBackup, e.cid)
		}
		plains[i] = plain
	}
	return plains, nil
}

// applyTolerant applies entries one at a time, tolerating deletes of ids
// the target never saw. plains holds the puts' plaintexts, decrypted once
// by decryptPuts.
func applyTolerant(target *chunkstore.Store, entries []entry, plains [][]byte) error {
	for i, e := range entries {
		b := target.NewBatch()
		switch e.kind {
		case entryPut:
			b.RestoreWrite(e.cid, plains[i])
		case entryDelete:
			b.Deallocate(e.cid)
		}
		if err := target.Commit(b, false); err != nil {
			if e.kind == entryDelete && errors.Is(err, chunkstore.ErrNotAllocated) {
				continue
			}
			return err
		}
	}
	return nil
}
