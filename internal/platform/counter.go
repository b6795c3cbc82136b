package platform

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
)

// MemCounter is an in-memory OneWayCounter for tests.
type MemCounter struct {
	mu sync.Mutex
	v  uint64
}

// NewMemCounter returns a counter starting at zero.
func NewMemCounter() *MemCounter { return &MemCounter{} }

// Read implements OneWayCounter.
func (c *MemCounter) Read() (uint64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.v, nil
}

// Increment implements OneWayCounter.
func (c *MemCounter) Increment() (uint64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.v++
	return c.v, nil
}

// Set forces the counter value. Real one-way counters cannot do this; it
// exists so that tests can simulate a malfunctioning or reset counter.
func (c *MemCounter) Set(v uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.v = v
}

// FileCounter is a OneWayCounter emulated as a file in a store, exactly as
// the paper's evaluation does ("the one-way counter was emulated as a file
// on the same NTFS partition", §7.2). The value is stored redundantly in two
// slots with a parity word so that a crash during Increment cannot lose the
// count: the larger valid slot wins.
type FileCounter struct {
	mu   sync.Mutex
	file File
	v    uint64
	// noSync skips the per-increment fsync, mirroring the paper's
	// evaluation where the counter file goes through the OS file cache
	// (only log files are opened WRITE_THROUGH, §7.2). A crash can then
	// leave the persisted counter behind the acknowledged value — fine for
	// an emulation standing in for instant hardware, wrong for production.
	noSync bool
}

const counterSlotSize = 16 // value (8) + complement check (8)

// NewFileCounterNoSync opens a counter whose increments are not fsynced —
// the paper's benchmark emulation (see FileCounter.noSync).
func NewFileCounterNoSync(store UntrustedStore, name string) (*FileCounter, error) {
	c, err := NewFileCounter(store, name)
	if err != nil {
		return nil, err
	}
	c.noSync = true
	return c, nil
}

// NewFileCounter opens or creates the counter file named name in store.
func NewFileCounter(store UntrustedStore, name string) (*FileCounter, error) {
	f, err := store.Open(name)
	if errors.Is(err, ErrNotFound) {
		f, err = store.Create(name)
		if err != nil {
			return nil, err
		}
		c := &FileCounter{file: f}
		if err := c.writeSlot(0, 0); err != nil {
			return nil, err
		}
		if err := c.writeSlot(1, 0); err != nil {
			return nil, err
		}
		if err := f.Sync(); err != nil {
			return nil, fmt.Errorf("platform: initializing counter: %w", err)
		}
		return c, nil
	}
	if err != nil {
		return nil, err
	}
	c := &FileCounter{file: f}
	v, err := c.load()
	if err != nil {
		return nil, err
	}
	c.v = v
	return c, nil
}

func (c *FileCounter) readSlot(slot int) (uint64, bool) {
	var buf [counterSlotSize]byte
	if _, err := c.file.ReadAt(buf[:], int64(slot*counterSlotSize)); err != nil && err != io.EOF {
		return 0, false
	}
	v := binary.BigEndian.Uint64(buf[0:8])
	check := binary.BigEndian.Uint64(buf[8:16])
	if check != ^v {
		return 0, false
	}
	return v, true
}

func (c *FileCounter) writeSlot(slot int, v uint64) error {
	var buf [counterSlotSize]byte
	binary.BigEndian.PutUint64(buf[0:8], v)
	binary.BigEndian.PutUint64(buf[8:16], ^v)
	if _, err := c.file.WriteAt(buf[:], int64(slot*counterSlotSize)); err != nil {
		return fmt.Errorf("platform: writing counter slot %d: %w", slot, err)
	}
	return nil
}

func (c *FileCounter) load() (uint64, error) {
	v0, ok0 := c.readSlot(0)
	v1, ok1 := c.readSlot(1)
	switch {
	case ok0 && ok1:
		if v1 > v0 {
			return v1, nil
		}
		return v0, nil
	case ok0:
		return v0, nil
	case ok1:
		return v1, nil
	default:
		return 0, errors.New("platform: one-way counter file is corrupt")
	}
}

// Read implements OneWayCounter.
func (c *FileCounter) Read() (uint64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.v, nil
}

// Increment implements OneWayCounter. The new value is written to the slot
// holding the older value, then synced, so that one valid slot always holds
// a value ≥ the last acknowledged count. A counter at the largest value
// fails rather than wrap to zero.
func (c *FileCounter) Increment() (uint64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.v == math.MaxUint64 {
		return 0, errors.New("platform: one-way counter is at its largest value")
	}
	next := c.v + 1
	slot := int(next % 2)
	if err := c.writeSlot(slot, next); err != nil {
		return 0, err
	}
	if !c.noSync {
		if err := c.file.Sync(); err != nil {
			return 0, fmt.Errorf("platform: syncing counter: %w", err)
		}
	}
	c.v = next
	return next, nil
}

// Close releases the counter file handle.
func (c *FileCounter) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.file.Close()
}
