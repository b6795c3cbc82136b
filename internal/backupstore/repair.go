package backupstore

import (
	"fmt"

	"tdb/internal/chunkstore"
	"tdb/internal/platform"
	"tdb/internal/sec"
)

// RepairResult reports the outcome of a scrub-and-repair pass.
type RepairResult struct {
	// Healed lists the chunks restored from backups, ascending.
	Healed []chunkstore.ChunkID
	// Unrepairable lists damaged chunks for which no backup in the chain
	// holds a copy matching the Merkle tree's expected hash (the chunk was
	// written after the last backup, or the backups are damaged too).
	// They remain quarantined.
	Unrepairable []chunkstore.BadChunk
	// Report is the scrub taken after healing; a whole store yields
	// Report.Clean() == true.
	Report *chunkstore.ScrubReport
}

// Repair heals the damaged chunks named in a scrub report from the backup
// chain in arch, then re-scrubs to prove the store is whole.
//
// Soundness rests on the Merkle tree: each BadChunk carries the ciphertext
// digest the location map attests to (WantHash), and Repair only accepts a
// backup copy whose ciphertext digests to exactly that value (a keyed GMAC
// under the default suite, which no one without the device secret can
// match for other bytes but with negligible odds). A matching copy
// is therefore byte-identical to what the damaged record held before the
// damage — restoring it can neither roll the chunk back to a stale version
// nor smuggle in attacker-chosen content, even if the attacker forged the
// archive. Matched copies are decrypted and rewritten through one normal
// durable commit, which re-encrypts them under a fresh IV, updates the
// Merkle tree, and lifts their quarantine.
//
// The chain is searched newest-first so each chunk is restored from the
// newest backup containing it; older streams are only opened for chunks the
// newer ones did not match. Damage to the location map itself
// (report.MapDamage) cannot be healed per-chunk — those subtrees need a full
// Restore into a fresh store — but per-chunk healing still proceeds and the
// remaining damage shows in the returned Report.
func Repair(target *chunkstore.Store, arch platform.ArchivalStore, suite sec.Suite, report *chunkstore.ScrubReport) (*RepairResult, error) {
	res := &RepairResult{}
	need := make(map[chunkstore.ChunkID]chunkstore.BadChunk, len(report.Bad))
	for _, b := range report.Bad {
		need[b.ID] = b
	}

	if len(need) > 0 {
		chain, err := Chain(arch, suite)
		if err != nil {
			return nil, err
		}
		healed := make(map[chunkstore.ChunkID][]byte, len(need))
		// Newest stream first: the first hash match per chunk wins, and any
		// older copies (necessarily stale, hence hash-mismatched) are never
		// even compared once the chunk is off the need list.
		for i := len(chain) - 1; i >= 0 && len(need) > 0; i-- {
			if err := matchStream(arch, suite, chain[i].Name, need, healed); err != nil {
				return nil, err
			}
		}
		if len(healed) > 0 {
			b := target.NewBatch()
			for cid, plain := range healed {
				b.Write(cid, plain)
				res.Healed = append(res.Healed, cid)
			}
			if err := target.Commit(b, true); err != nil {
				return nil, fmt.Errorf("backupstore: committing repaired chunks: %w", err)
			}
		}
		for _, bad := range need {
			res.Unrepairable = append(res.Unrepairable, bad)
		}
		sortChunkIDs(res.Healed)
		sortBadChunks(res.Unrepairable)
	}

	// Re-scrub to prove the store is whole (or show what damage remains).
	after, err := target.Scrub()
	if err != nil {
		return nil, err
	}
	res.Report = after
	return res, nil
}

// matchStream scans one backup stream for Put entries whose ciphertext
// hashes to a needed chunk's expected hash, moving matches from need to
// healed (as validated plaintext).
func matchStream(arch platform.ArchivalStore, suite sec.Suite, name string, need map[chunkstore.ChunkID]chunkstore.BadChunk, healed map[chunkstore.ChunkID][]byte) error {
	r, err := arch.OpenStream(name)
	if err != nil {
		return err
	}
	raw, err := readAll(r)
	r.Close()
	if err != nil {
		return fmt.Errorf("%w: %v", ErrInvalidBackup, err)
	}
	_, entries, err := parseBackup(raw, suite)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if e.kind != entryPut {
			continue
		}
		bad, wanted := need[e.cid]
		if !wanted {
			continue
		}
		if !sec.HashEqual(suite.Digest(nil, e.ciphertext), bad.WantHash) {
			// A copy of the right chunk but the wrong version; keep looking
			// in older streams.
			continue
		}
		plain, err := suite.Decrypt(e.ciphertext)
		if err != nil {
			return fmt.Errorf("%w: repair copy of chunk %d fails decryption", ErrInvalidBackup, e.cid)
		}
		healed[e.cid] = plain
		delete(need, e.cid)
	}
	return nil
}

func sortChunkIDs(ids []chunkstore.ChunkID) {
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j-1] > ids[j]; j-- {
			ids[j-1], ids[j] = ids[j], ids[j-1]
		}
	}
}

func sortBadChunks(bad []chunkstore.BadChunk) {
	for i := 1; i < len(bad); i++ {
		for j := i; j > 0 && bad[j-1].ID > bad[j].ID; j-- {
			bad[j-1], bad[j] = bad[j], bad[j-1]
		}
	}
}
