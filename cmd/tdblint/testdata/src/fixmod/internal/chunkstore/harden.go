// harden.go — harden-pipeline fixture: a commit round that advances the
// one-way counter with the store mutex held is a locked-io finding; the same
// advance as a stage of its own — a declared serialization point entered
// under the stage's turn, the store mutex taken only to snapshot — is clean.
// The checkpoint path may wait for the turn under the store mutex: the
// stage never takes the store mutex, so the lock graph stays acyclic.
package chunkstore

import (
	"sync"

	"fixmod/internal/platform"
)

type hstore struct {
	mu      sync.Mutex // the store mutex
	advMu   sync.Mutex // the counter stage's turn
	counter platform.Counter
	stamp   uint64
	hw      uint64
}

// roundUnderMutex publishes a round by advancing the counter under the
// store mutex, stalling every committer and reader behind the counter's
// I/O: locked-io positive.
func (s *hstore) roundUnderMutex() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.counter.Increment()
	s.hw++
}

// roundPipelined snapshots under the store mutex, releases it, and runs the
// advance under the stage's turn alone: negative.
func (s *hstore) roundPipelined() {
	s.mu.Lock()
	stamp := s.stamp
	s.mu.Unlock()
	s.advMu.Lock()
	defer s.advMu.Unlock()
	s.advance(stamp)
}

// advance is the counter stage.
//
//tdblint:serial fixture: the turn exists to serialise counter advances and is never held with the store mutex on a commit path
func (s *hstore) advance(stamp uint64) {
	for s.hw < stamp {
		s.counter.Increment()
		s.hw++
	}
}

// checkpoint hardens inline under the store mutex it already holds,
// through the same stage: negative (store mutex → turn is the only nesting).
func (s *hstore) checkpoint() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.hardenLocked()
}

func (s *hstore) hardenLocked() {
	s.advMu.Lock()
	defer s.advMu.Unlock()
	s.advance(s.stamp)
}
