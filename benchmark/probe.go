package main

import (
	"fmt"
	"strings"
	"time"

	"tdb"
	"tdb/internal/chunkstore"
	"tdb/internal/sec"
)

// probeLayers times each lower layer's public entry points directly, on the
// keys the workload's own stream would ask for next, and returns the
// per-layer metrics they yield. It runs after the measured phase, on the
// same warm database; each probe takes fresh keys so none reads what the
// one before it just cached. Writes go to a scratch object and a scratch
// chunk that are removed again.
func probeLayers(e *env, w workload) (map[string]float64, error) {
	m := map[string]float64{}
	n := e.sz.probeKeys
	db, cs := e.db, e.db.Chunks()

	// objectstore: snapshot open of one object.
	oids, err := w.nextOIDs(e, n)
	if err != nil {
		return nil, fmt.Errorf("probe keys: %w", err)
	}
	start := time.Now()
	for _, oid := range oids {
		txn := db.BeginObjectReadOnly()
		_, err := txn.OpenReadonly(oid)
		txn.Abort()
		if err != nil {
			return nil, fmt.Errorf("probe objectstore open: %w", err)
		}
	}
	m["objectstore.open_ro_us"] = perUs(time.Since(start), n)

	// objectstore: nondurable commit of a 1 KiB scratch object.
	txn := db.BeginObject()
	scratch, err := txn.Insert(newLicence(e.seed, -1))
	if err == nil {
		err = txn.Commit(false)
	}
	if err != nil {
		txn.Abort()
		return nil, fmt.Errorf("probe scratch object: %w", err)
	}
	start = time.Now()
	for i := 0; i < n; i++ {
		txn := db.BeginObject()
		ref, err := tdb.OpenWritable[*Licence](txn, scratch)
		if err == nil {
			ref.Deref().bump()
			err = txn.Commit(false)
		}
		if err != nil {
			txn.Abort()
			return nil, fmt.Errorf("probe objectstore commit: %w", err)
		}
	}
	m["objectstore.commit_us"] = perUs(time.Since(start), n)
	txn = db.BeginObject()
	if err = txn.Remove(scratch); err == nil {
		err = txn.Commit(false)
	}
	if err != nil {
		txn.Abort()
		return nil, fmt.Errorf("probe scratch object removal: %w", err)
	}

	// chunkstore: point reads, with the hit rate they met.
	if oids, err = w.nextOIDs(e, n); err != nil {
		return nil, fmt.Errorf("probe keys: %w", err)
	}
	before := cs.Stats()
	var chunkBytes int
	start = time.Now()
	for _, oid := range oids {
		data, err := cs.Read(chunkstore.ChunkID(oid))
		if err != nil {
			return nil, fmt.Errorf("probe chunkstore read: %w", err)
		}
		chunkBytes += len(data)
	}
	m["chunkstore.read_us"] = perUs(time.Since(start), n)
	after := cs.Stats()
	misses := float64(after.ReadCacheMisses - before.ReadCacheMisses)
	missRate := ratio(misses, misses+float64(after.ReadCacheHits-before.ReadCacheHits))

	// chunkstore: batch reads of 32.
	if oids, err = w.nextOIDs(e, n); err != nil {
		return nil, fmt.Errorf("probe keys: %w", err)
	}
	cids := make([]chunkstore.ChunkID, len(oids))
	for i, oid := range oids {
		cids[i] = chunkstore.ChunkID(oid)
	}
	start = time.Now()
	for lo := 0; lo < len(cids); lo += 32 {
		for _, r := range cs.ReadBatch(cids[lo:min(lo+32, len(cids))]) {
			if r.Err != nil {
				return nil, fmt.Errorf("probe chunkstore batch read: %w", r.Err)
			}
		}
	}
	m["chunkstore.read_batch_us_per_chunk"] = perUs(time.Since(start), n)

	// chunkstore: the three public stages of a durable commit.
	var prepare, commit, await time.Duration
	cid, err := cs.AllocateChunkID()
	if err != nil {
		return nil, fmt.Errorf("probe scratch chunk: %w", err)
	}
	data := newLicence(e.seed, -2).Payload
	for i := 0; i < e.sz.probeCommits; i++ {
		b := cs.NewBatch()
		b.Write(cid, data)
		announced := cs.AnnounceDurable(true)
		t0 := time.Now()
		p, err := cs.PrepareBatch(b)
		t1 := time.Now()
		var ticket chunkstore.CommitTicket
		if err == nil {
			ticket, err = cs.CommitPrepared(b, p, true)
		}
		if err != nil {
			if announced {
				cs.RetractDurable()
			}
			return nil, fmt.Errorf("probe chunkstore commit: %w", err)
		}
		t2 := time.Now()
		if err := cs.AwaitDurable(ticket); err != nil {
			return nil, fmt.Errorf("probe chunkstore harden: %w", err)
		}
		prepare += t1.Sub(t0)
		commit += t2.Sub(t1)
		await += time.Since(t2)
	}
	m["chunkstore.prepare_us"] = perUs(prepare, e.sz.probeCommits)
	m["chunkstore.commit_prepared_us"] = perUs(commit, e.sz.probeCommits)
	m["chunkstore.await_durable_us"] = perUs(await, e.sz.probeCommits)
	b := cs.NewBatch()
	b.Deallocate(cid)
	if err := cs.Commit(b, false); err != nil {
		return nil, fmt.Errorf("probe scratch chunk removal: %w", err)
	}

	// sec: the database's suite on 1 KiB.
	suite, err := sec.NewSuite(suiteName(db), deviceSecret)
	if err != nil {
		return nil, fmt.Errorf("probe suite: %w", err)
	}
	plain := make([]byte, 1024)
	copy(plain, data)
	var ct []byte
	start = time.Now()
	for i := 0; i < n; i++ {
		if ct, err = suite.Encrypt(plain, uint64(i)); err != nil {
			return nil, fmt.Errorf("probe encrypt: %w", err)
		}
	}
	m["sec.encrypt_us"] = perUs(time.Since(start), n)
	start = time.Now()
	for i := 0; i < n; i++ {
		if _, err := suite.Decrypt(ct); err != nil {
			return nil, fmt.Errorf("probe decrypt: %w", err)
		}
	}
	m["sec.decrypt_us"] = perUs(time.Since(start), n)
	start = time.Now()
	for i := 0; i < n; i++ {
		suite.Hash(ct)
	}
	m["sec.hash_us"] = perUs(time.Since(start), n)
	// A read pays the suite only on a miss, and in proportion to the chunk.
	secPerRead := missRate * (m["sec.decrypt_us"] + m["sec.hash_us"]) * float64(chunkBytes) / float64(n) / float64(len(plain))
	m["sec.share_of_read"] = ratio(secPerRead, m["chunkstore.read_us"])
	return m, nil
}

func perUs(d time.Duration, n int) float64 { return ratio(float64(d)/1e3, float64(n)) }

// suiteName recovers the crypto suite the database runs on — a default the
// benchmark does not set — from the handle's description, "tdb(<suite>, …".
func suiteName(db *tdb.DB) string {
	name, _, _ := strings.Cut(strings.TrimPrefix(db.String(), "tdb("), ",")
	return name
}
