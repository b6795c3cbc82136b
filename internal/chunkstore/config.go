package chunkstore

import (
	"fmt"
	"runtime"

	"tdb/internal/lru"
	"tdb/internal/platform"
	"tdb/internal/sec"
)

// Config configures a chunk store.
type Config struct {
	// Store is the untrusted store holding segments and the superblock.
	Store platform.UntrustedStore
	// Counter is the one-way counter used for replay detection. Required
	// when UseCounter is true.
	Counter platform.OneWayCounter
	// Suite provides encryption, hashing, and MACs. Required.
	Suite sec.Suite
	// UseCounter controls whether durable commits increment the one-way
	// counter. The paper's security-off configuration skips the counter
	// (§7.3); by convention callers set this to Suite.Name() != "null".
	UseCounter bool

	// SegmentSize is the soft maximum size of a log segment file. Default
	// 256 KiB.
	SegmentSize int
	// Fanout is the location map tree fanout. Default 64.
	Fanout int
	// MaxUtilization is the maximal fraction of segment bytes occupied by
	// live chunks before the cleaner runs (the paper's "database
	// utilization"; default 0.60, §7.3).
	MaxUtilization float64
	// CheckpointBytes is the residual log size that triggers an automatic
	// checkpoint. Default 4 MiB: checkpoints rewrite the dirty portion of
	// the location map, so frequent checkpoints inflate write volume; the
	// paper defers them to idle periods (§3.2.1).
	CheckpointBytes int64
	// CleanStepBytes bounds how much live data a single post-commit cleaner
	// step may copy, bounding per-commit overhead (§3.2.1). Default one
	// segment.
	CleanStepBytes int64
	// CachePool is the LRU pool for location map nodes. The store is its
	// only owner and touches it only under its state mutex held
	// exclusively, so the pool must not be shared. If nil a private 4 MiB
	// pool is created.
	CachePool *lru.Pool
	// CommitWorkers is the number of goroutines used to encrypt and hash a
	// batch's payloads during commit preparation. 0 selects one worker per
	// CPU; 1 prepares inline on the committing goroutine.
	CommitWorkers int
	// PrefetchWorkers bounds the goroutines one ReadBatch call fans its
	// segment reads, hash validations, and decryptions across. 0 selects
	// one per CPU capped at 8; 1 executes the batch inline on the calling
	// goroutine.
	PrefetchWorkers int
	// DisableAutoClean turns off post-commit cleaning (the benchmarks'
	// idle-cleaning experiments drive the cleaner explicitly).
	DisableAutoClean bool
	// DisableAutoCheckpoint turns off the automatic residual-size
	// checkpoint trigger.
	DisableAutoCheckpoint bool
	// Retry bounds how raw segment and superblock I/O retries transient
	// storage errors (platform.ErrTransient). Zero fields select defaults:
	// 4 attempts with 1ms backoff doubling to a 50ms cap.
	Retry RetryPolicy
}

func (c *Config) fillDefaults() error {
	if c.Store == nil {
		return fmt.Errorf("%w: config requires a Store", ErrUsage)
	}
	if c.Suite == nil {
		return fmt.Errorf("%w: config requires a Suite", ErrUsage)
	}
	if c.UseCounter && c.Counter == nil {
		return fmt.Errorf("%w: UseCounter requires a Counter", ErrUsage)
	}
	if c.SegmentSize == 0 {
		c.SegmentSize = 256 << 10
	}
	if c.SegmentSize < 4<<10 {
		return fmt.Errorf("%w: segment size %d too small", ErrUsage, c.SegmentSize)
	}
	if c.Fanout == 0 {
		c.Fanout = 64
	}
	if c.Fanout < 2 || c.Fanout > 4096 {
		return fmt.Errorf("%w: fanout %d out of range [2,4096]", ErrUsage, c.Fanout)
	}
	if c.MaxUtilization == 0 {
		c.MaxUtilization = 0.60
	}
	if c.MaxUtilization < 0.05 || c.MaxUtilization > 0.97 {
		return fmt.Errorf("%w: max utilization %.2f out of range [0.05,0.97]", ErrUsage, c.MaxUtilization)
	}
	if c.CheckpointBytes == 0 {
		c.CheckpointBytes = 4 << 20
	}
	if c.CleanStepBytes == 0 {
		c.CleanStepBytes = int64(c.SegmentSize)
	}
	if c.CachePool == nil {
		c.CachePool = lru.NewPool(4 << 20)
	}
	if c.CommitWorkers < 0 {
		return fmt.Errorf("%w: commit workers %d negative", ErrUsage, c.CommitWorkers)
	}
	if c.PrefetchWorkers < 0 {
		return fmt.Errorf("%w: prefetch workers %d negative", ErrUsage, c.PrefetchWorkers)
	}
	if c.PrefetchWorkers == 0 {
		c.PrefetchWorkers = runtime.GOMAXPROCS(0)
		if c.PrefetchWorkers > 8 {
			c.PrefetchWorkers = 8
		}
	}
	c.Retry.fillDefaults()
	return nil
}
