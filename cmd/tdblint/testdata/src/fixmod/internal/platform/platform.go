// Package platform is the fixture stand-in for the untrusted-store layer:
// its import path suffix (internal/platform) makes its methods locked-io
// sinks and its File the raw-io-funnel target type.
package platform

type File struct{}

func (File) ReadAt(p []byte, off int64) (int, error)  { return len(p), nil }
func (File) WriteAt(p []byte, off int64) (int, error) { return len(p), nil }
func (File) Sync() error                              { return nil }
func (File) Truncate(size int64) error                { return nil }
func (File) Close() error                             { return nil }

// Counter is the fixture one-way counter: its Increment is device I/O.
type Counter struct{}

func (Counter) Increment() (uint64, error) { return 0, nil }
