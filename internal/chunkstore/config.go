package chunkstore

import (
	"fmt"

	"tdb/internal/platform"
	"tdb/internal/sec"
)

// Config configures a chunk store.
type Config struct {
	// Store is the untrusted store holding segments and the superblock.
	Store platform.UntrustedStore
	// Counter is the one-way counter used for replay detection. It advances
	// once per harden round, not per durable commit as in the paper (§3):
	// the durable commits a round hardens share its stamp, and the round's
	// seal record, which counts them, lets recovery tell a log cut inside
	// the newest round from a smaller round. Required unless Suite is the
	// null suite, the paper's security-off configuration, which skips the
	// counter (§7.3) and ignores this field.
	Counter platform.OneWayCounter
	// Suite provides encryption, hashing, and MACs. Required.
	Suite sec.Suite

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
	// CacheBytes bounds the memory accounted to cached location map nodes
	// (the CLOCK ring in locmap.go). Zero selects 4 MiB; a negative value
	// lifts the bound.
	CacheBytes int64
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
	if c.Suite.Name() == "null" {
		c.Counter = nil
	} else if c.Counter == nil {
		return fmt.Errorf("%w: suite %s requires a Counter", ErrUsage, c.Suite.Name())
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
	if c.CacheBytes == 0 {
		c.CacheBytes = 4 << 20
	}
	c.Retry.fillDefaults()
	return nil
}
