// Package platform provides the infrastructure modules that TDB expects the
// device platform to supply (paper §2, Figure 1):
//
//   - an untrusted store: a file-system-like random-access store holding the
//     database; the attacker may arbitrarily read or modify it,
//   - an archival store: a stream-based sequential store for backups, also
//     attacker-controlled,
//   - a one-way counter: a small persistent counter that can only be
//     incremented, used to detect replay attacks.
//
// The fourth module, the secret store holding the device secret from which
// all keys are derived, is not modelled here: the secret lives in ROM,
// outside the attacker's store, and is handed to the database as bytes.
//
// The package supplies real (directory/file backed) implementations, purely
// in-memory implementations for testing, a fault-injecting wrapper used by
// the crash-recovery test suite, a metering wrapper used by the benchmarks
// to account bytes and operations, and a simulated-disk wrapper that models
// the latency of the paper's evaluation disk.
package platform

import (
	"errors"
	"io"
)

// Common errors returned by store implementations.
var (
	// ErrNotFound is returned when a named file does not exist.
	ErrNotFound = errors.New("platform: file not found")
	// ErrExists is returned when creating a file that already exists.
	ErrExists = errors.New("platform: file already exists")
	// ErrCrashed is returned by a FaultStore after its crash point has been
	// reached; it simulates the device losing power.
	ErrCrashed = errors.New("platform: simulated crash")
	// ErrTransient marks I/O errors that are expected to clear on retry —
	// the storage-stack equivalent of a bus timeout or a recoverable media
	// error. Layers above may retry operations failing with ErrTransient;
	// any other failure is permanent from the device's point of view.
	ErrTransient = errors.New("platform: transient I/O error")
)

// IsTransient reports whether err is a retryable transient I/O error.
func IsTransient(err error) bool { return errors.Is(err, ErrTransient) }

// File is a random-access file in an untrusted store. It is the unit the
// chunk store builds log segments, anchors and counters from.
//
// Implementations need not be safe for concurrent use; TDB serializes access
// through its state mutex.
type File interface {
	io.ReaderAt
	io.WriterAt
	// Size returns the current length of the file in bytes.
	Size() (int64, error)
	// Truncate changes the length of the file.
	Truncate(size int64) error
	// Sync forces any buffered writes to stable storage. The paper's
	// experiments open log files with WRITE_THROUGH; callers invoke Sync at
	// durable commit points.
	Sync() error
	// Close releases the handle. The file remains in the store.
	Close() error
}

// UntrustedStore is the file-system-based interface to the storage system
// holding the database (paper §2). Nothing stored here is trusted: the chunk
// store layers encryption and Merkle hashing on top.
type UntrustedStore interface {
	// Create creates a new file. It fails with ErrExists if the name is
	// already in use.
	Create(name string) (File, error)
	// Open opens an existing file, failing with ErrNotFound otherwise.
	Open(name string) (File, error)
	// Remove deletes a file. Removing a missing file returns ErrNotFound.
	Remove(name string) error
	// List returns the names of all files in the store, in unspecified
	// order.
	List() ([]string, error)
	// Sync flushes store-level metadata (directory contents) if the
	// implementation buffers it.
	Sync() error
}

// OneWayCounter is a small persistent counter that cannot be decremented
// (paper §2). TDB signs the counter value into the database anchor; a stale
// database replayed by the attacker carries a stale counter value and is
// rejected. The paper's evaluation emulates the counter as a file, as does
// FileCounter here; MemCounter serves tests.
type OneWayCounter interface {
	// Read returns the current counter value.
	Read() (uint64, error)
	// Increment advances the counter by one and returns the new value.
	Increment() (uint64, error)
}

// ArchivalStream is a single backup being written or read.
type ArchivalStream interface {
	io.Reader
	io.Writer
	io.Closer
}

// ArchivalStore provides a stream-based interface to sequential storage for
// backups (paper §2). Like the untrusted store it is attacker-controlled; the
// backup store validates everything it reads back.
type ArchivalStore interface {
	// CreateStream starts a new named backup stream, replacing any existing
	// stream with the same name.
	CreateStream(name string) (ArchivalStream, error)
	// OpenStream opens an existing stream for reading from the beginning.
	OpenStream(name string) (ArchivalStream, error)
	// RemoveStream deletes a stream.
	RemoveStream(name string) error
	// ListStreams returns the names of all streams.
	ListStreams() ([]string, error)
}
