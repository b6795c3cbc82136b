package chunkstore

import (
	"errors"
	"fmt"
	"maps"
	"slices"
)

// Scrubbing (paper §2's hostile-store model, taken to its operational
// conclusion): the attacker — or plain bit rot — can damage any byte of the
// untrusted store at rest. Detection alone (ErrTampered) turns one rotten
// chunk into a bricked database; the scrubber instead walks the location
// map's Merkle tree, verifies every live chunk against its recorded
// ciphertext digest, and quarantines exactly the damaged ones. Quarantined
// chunks fail reads with ErrDegraded while the rest of the database stays
// fully usable, and backupstore.Repair can heal them from a backup chain.

// BadChunk identifies one damaged live chunk found by a scrub.
type BadChunk struct {
	// ID is the damaged chunk.
	ID ChunkID
	// Loc is where the damaged stored version lives in the log.
	Loc Location
	// WantHash is the ciphertext digest the Merkle tree records for the
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
// Scrub walks a snapshot of its own (auditWalk), so the store stays in
// service while it runs. A chunk enters or leaves quarantine (and a bad one
// the report) only while the current map still names the version the scrub
// read: a version rewritten or moved meanwhile earns nothing from it.
//
// Scrub distinguishes damage from environmental failure: integrity
// violations go in the report, while an I/O error (ErrIO, e.g. a transient
// fault outlasting the retry policy) aborts the scrub with that error, since
// a report produced over a misbehaving device would be unreliable.
func (s *Store) Scrub() (*ScrubReport, error) {
	sn, err := s.TakeSnapshot()
	if err != nil {
		return nil, err
	}
	defer sn.Close()
	report := &ScrubReport{}
	w := auditWalk{mapCursor: mapCursor{damage: &report.MapDamage}, sn: sn, ciphertext: true}
	err = w.run(func(ps []readPlan) error {
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.closed.Load() {
			return ErrClosed
		}
		for _, p := range ps {
			if _, quarantined := s.quarantine[p.cid]; p.err == nil && !quarantined {
				report.ChunksChecked++
				continue
			}
			switch current, err := s.namesLocked(p.cid, p.e); {
			case errors.Is(err, ErrIO):
				return err
			case p.err == nil:
				report.ChunksChecked++
				if current {
					delete(s.quarantine, p.cid)
				}
			case current:
				s.quarantine[p.cid] = p.err.Error()
				report.Bad = append(report.Bad, BadChunk{p.cid, p.e.loc, append([]byte(nil), p.e.hash...), p.err.Error()})
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return report, nil
}

// Quarantined returns the currently quarantined chunk ids, ascending.
func (s *Store) Quarantined() []ChunkID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return slices.Sorted(maps.Keys(s.quarantine))
}

// degradedReadErr wraps a per-chunk integrity failure so it matches both
// ErrDegraded (the chunk is individually damaged and repairable) and, via
// cause, ErrTampered (it is still an integrity violation).
func degradedReadErr(cid ChunkID, cause error) error {
	return fmt.Errorf("%w: chunk %d: %w", ErrDegraded, cid, cause)
}
