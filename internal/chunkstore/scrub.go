package chunkstore

import (
	"errors"
	"fmt"
	"sort"

	"tdb/internal/sec"
)

// Scrubbing (paper §2's hostile-store model, taken to its operational
// conclusion): the attacker — or plain bit rot — can damage any byte of the
// untrusted store at rest. Detection alone (ErrTampered) turns one rotten
// chunk into a bricked database; the scrubber instead walks the location
// map's Merkle tree, verifies every live chunk against its recorded
// ciphertext hash, and quarantines exactly the damaged ones. Quarantined
// chunks fail reads with ErrDegraded while the rest of the database stays
// fully usable, and backupstore.Repair can heal them from a backup chain.

// BadChunk identifies one damaged live chunk found by a scrub.
type BadChunk struct {
	// ID is the damaged chunk.
	ID ChunkID
	// Loc is where the damaged stored version lives in the log.
	Loc Location
	// WantHash is the ciphertext hash the Merkle tree records for the
	// chunk. Repair uses it to find (and prove) the matching backup copy.
	WantHash []byte
	// Reason describes what failed validation.
	Reason string
}

// ScrubReport is the result of one scrub pass.
type ScrubReport struct {
	// ChunksChecked counts live chunks whose stored bytes were verified.
	ChunksChecked int64
	// Bad lists the damaged chunks, in ascending chunk-id order.
	Bad []BadChunk
	// MapDamage lists location-map subtrees that failed validation and
	// could not be walked. Chunks below a damaged map node cannot be
	// enumerated (or read); healing them requires restoring from a full
	// backup rather than a per-chunk repair.
	MapDamage []string
}

// Clean reports whether the scrub found no damage at all.
func (r *ScrubReport) Clean() bool { return len(r.Bad) == 0 && len(r.MapDamage) == 0 }

// BadIDs returns the damaged chunk ids, ascending.
func (r *ScrubReport) BadIDs() []ChunkID {
	out := make([]ChunkID, len(r.Bad))
	for i, b := range r.Bad {
		out[i] = b.ID
	}
	return out
}

// Scrub verifies every live chunk's stored bytes against the Merkle tree and
// returns a per-chunk corruption report. Damaged chunks are quarantined:
// subsequent reads fail with ErrDegraded (instead of the whole store being
// unusable), until a rewrite — typically backupstore.Repair — heals them.
// Chunks the scrub verified as intact leave quarantine.
//
// Scrub distinguishes damage from environmental failure: integrity
// violations go in the report, while an I/O error (ErrIO, e.g. a transient
// fault outlasting the retry policy) aborts the scrub with that error, since
// a report produced over a misbehaving device would be unreliable.
func (s *Store) Scrub() (*ScrubReport, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		return nil, ErrClosed
	}
	// Scrub is a flush point: it audits what the untrusted store actually
	// holds, so the write-behind buffer must reach the file first — otherwise
	// the read-through buffer would vouch for bytes the device never saw.
	if err := s.segs.flushLocked(); err != nil {
		return nil, err
	}
	report := &ScrubReport{}
	if err := s.scrubWalkLocked(s.lm.root, report); err != nil {
		return nil, err
	}
	sort.Slice(report.Bad, func(i, j int) bool { return report.Bad[i].ID < report.Bad[j].ID })
	// Rebuild the quarantine from this pass: every chunk the walk reached
	// was either verified (leaves quarantine) or reported bad (enters it).
	s.quarantine = make(map[ChunkID]string, len(report.Bad))
	for _, b := range report.Bad {
		s.quarantine[b.ID] = b.Reason
	}
	return report, nil
}

// scrubWalkLocked is forEachEntry's damage-tolerant sibling: an unloadable child
// subtree is recorded in the report (and skipped) instead of aborting the
// walk, and each leaf entry's chunk is verified in place. Only environmental
// I/O errors abort.
func (s *Store) scrubWalkLocked(n *mapNode, report *ScrubReport) error {
	m := s.lm
	if n.level == 0 {
		base := n.index * uint64(m.fanout)
		for i, e := range n.entries {
			if e.isEmpty() {
				continue
			}
			cid := ChunkID(base + uint64(i))
			reason, err := s.verifyChunkAtLocked(cid, e)
			if err != nil {
				return err
			}
			if reason != "" {
				report.Bad = append(report.Bad, BadChunk{
					ID:       cid,
					Loc:      e.loc,
					WantHash: append([]byte(nil), e.hash...),
					Reason:   reason,
				})
			} else {
				report.ChunksChecked++
			}
		}
		return nil
	}
	for i := range n.entries {
		if n.entries[i].isEmpty() && n.kids[i] == nil {
			continue
		}
		kid := n.kids[i]
		if kid == nil {
			var err error
			kid, err = m.loadChild(n, i)
			if err != nil {
				if errors.Is(err, ErrIO) {
					return err
				}
				report.MapDamage = append(report.MapDamage,
					fmt.Sprintf("map node (%d,%d) slot %d at %v: %v", n.level, n.index, i, n.entries[i].loc, err))
				continue
			}
		}
		if err := s.scrubWalkLocked(kid, report); err != nil {
			return err
		}
	}
	return nil
}

// verifyChunkAtLocked checks the stored record at e against the Merkle tree
// without decrypting. A non-empty reason means the chunk is damaged; a
// non-nil error is environmental and aborts the scrub.
func (s *Store) verifyChunkAtLocked(cid ChunkID, e entry) (string, error) {
	typ, body, err := s.segs.readRecord(e.loc)
	if err != nil {
		if errors.Is(err, ErrIO) {
			return "", err
		}
		return fmt.Sprintf("record unreadable: %v", err), nil
	}
	if typ != recWrite {
		return fmt.Sprintf("record at %v has type %d, want write record", e.loc, typ), nil
	}
	gotCid, ciphertext, err := parseWriteRecord(body)
	if err != nil {
		return fmt.Sprintf("record malformed: %v", err), nil
	}
	if gotCid != cid {
		return fmt.Sprintf("record at %v names chunk %d", e.loc, gotCid), nil
	}
	if !sec.HashEqual(s.suite.Hash(ciphertext), e.hash) {
		return "ciphertext fails hash validation against the location map", nil
	}
	return "", nil
}

// Quarantined returns the currently quarantined chunk ids, ascending.
func (s *Store) Quarantined() []ChunkID {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]ChunkID, 0, len(s.quarantine))
	for cid := range s.quarantine {
		out = append(out, cid)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// degradedReadErr wraps a per-chunk integrity failure so it matches both
// ErrDegraded (the chunk is individually damaged and repairable) and, via
// cause, ErrTampered (it is still an integrity violation).
func degradedReadErr(cid ChunkID, cause error) error {
	return fmt.Errorf("%w: chunk %d: %w", ErrDegraded, cid, cause)
}
