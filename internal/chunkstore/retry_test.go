package chunkstore

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"tdb/internal/platform"
)

// sleepRecorder is an injectable clock for RetryPolicy.
type sleepRecorder struct {
	delays []time.Duration
}

func (r *sleepRecorder) sleep(d time.Duration) { r.delays = append(r.delays, d) }

func TestRetryPolicyAbsorbsTransientErrors(t *testing.T) {
	// Transient read and write errors below the retry bound must be
	// invisible to callers: commits and reads succeed even though the
	// device keeps hiccuping.
	env := newTestEnv(t, "3des-sha1")
	rec := &sleepRecorder{}
	env.cfg.Retry = RetryPolicy{MaxAttempts: 4, Sleep: rec.sleep}
	s := env.open(t)
	defer s.Close()

	env.fs.SetTransientWrites(3, 2) // every 3rd mutating op fails twice
	env.fs.SetTransientReads(3, 2)

	payload := bytes.Repeat([]byte("transient"), 40)
	var ids []ChunkID
	for i := 0; i < 10; i++ {
		ids = append(ids, allocWrite(t, s, payload))
	}
	for _, cid := range ids {
		got, err := s.Read(cid)
		if err != nil {
			t.Fatalf("Read(%d) under transient faults: %v", cid, err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("Read(%d) returned wrong payload", cid)
		}
	}
	stats := env.fs.Stats()
	if stats.TransientErrors == 0 {
		t.Fatal("fault injector reported no transient errors; test exercised nothing")
	}
	if len(rec.delays) == 0 {
		t.Fatal("retries happened but the injected clock never slept")
	}
}

func TestRetryBackoffUsesInjectedClock(t *testing.T) {
	rec := &sleepRecorder{}
	p := RetryPolicy{MaxAttempts: 4, Backoff: time.Millisecond, MaxBackoff: 50 * time.Millisecond, Sleep: rec.sleep}
	p.fillDefaults()
	calls := 0
	attempts, err := p.run(func() error {
		calls++
		return platform.ErrTransient
	})
	if !errors.Is(err, platform.ErrTransient) {
		t.Fatalf("run: %v", err)
	}
	if calls != 4 || attempts != 4 {
		t.Fatalf("got %d calls, %d attempts, want 4", calls, attempts)
	}
	want := []time.Duration{time.Millisecond, 2 * time.Millisecond, 4 * time.Millisecond}
	if len(rec.delays) != len(want) {
		t.Fatalf("got %d sleeps %v, want %d", len(rec.delays), rec.delays, len(want))
	}
	for i := range want {
		if rec.delays[i] != want[i] {
			t.Fatalf("sleep %d = %v, want %v (exponential backoff)", i, rec.delays[i], want[i])
		}
	}
}

func TestRetryPolicyDoesNotRetryPermanentErrors(t *testing.T) {
	perm := errors.New("media gone")
	rec := &sleepRecorder{}
	p := RetryPolicy{MaxAttempts: 4, Sleep: rec.sleep}
	p.fillDefaults()
	calls := 0
	attempts, err := p.run(func() error { calls++; return perm })
	if !errors.Is(err, perm) {
		t.Fatalf("run: %v", err)
	}
	if calls != 1 || attempts != 1 {
		t.Fatalf("permanent error was retried: %d calls", calls)
	}
	if len(rec.delays) != 0 {
		t.Fatalf("slept %v for a permanent error", rec.delays)
	}
}

func TestExhaustedRetrySurfacesIOErrorWithContext(t *testing.T) {
	// A transient fault that outlasts the retry bound must surface as a
	// typed *IOError carrying the operation, segment, and offset.
	env := newTestEnv(t, "3des-sha1")
	rec := &sleepRecorder{}
	env.cfg.Retry = RetryPolicy{MaxAttempts: 3, Sleep: rec.sleep}
	s := env.open(t)
	defer s.Close()
	cid := allocWrite(t, s, bytes.Repeat([]byte("x"), 100))

	env.fs.SetTransientReads(1, 1000) // every read fails far past the bound
	_, err := s.Read(cid)
	if err == nil {
		t.Fatal("Read succeeded through a permanently-failing device")
	}
	if !errors.Is(err, ErrIO) {
		t.Fatalf("error does not match ErrIO: %v", err)
	}
	if !errors.Is(err, platform.ErrTransient) {
		t.Fatalf("exhausted retry should unwrap to the transient cause: %v", err)
	}
	if errors.Is(err, ErrTampered) {
		t.Fatalf("environmental failure misclassified as tampering: %v", err)
	}
	var ioe *IOError
	if !errors.As(err, &ioe) {
		t.Fatalf("error is not a *IOError: %v", err)
	}
	if ioe.Op != "read" || ioe.Seg == 0 || ioe.Off < 0 {
		t.Fatalf("IOError lacks context: op=%q seg=%d off=%d", ioe.Op, ioe.Seg, ioe.Off)
	}
	if ioe.Attempts != 3 {
		t.Fatalf("IOError attempts = %d, want 3 (the policy bound)", ioe.Attempts)
	}
	env.fs.SetTransientReads(0, 0)
	if _, err := s.Read(cid); err != nil {
		t.Fatalf("Read after device recovered: %v", err)
	}
}

func TestTamperedIsNeverRetried(t *testing.T) {
	// Integrity failures must be returned immediately: re-reading
	// attacker-controlled bytes cannot make them honest. The fault store's
	// read counter proves exactly one physical read happened.
	env := newTestEnv(t, "3des-sha1")
	env.cfg.Retry = RetryPolicy{MaxAttempts: 6}
	s := env.open(t)
	defer s.Close()
	cid := allocWrite(t, s, bytes.Repeat([]byte("y"), 200))

	// Corrupt the chunk's stored record in place.
	s.mu.Lock()
	e, err := s.lm.get(cid)
	s.mu.Unlock()
	if err != nil {
		t.Fatalf("locating chunk record: %v", err)
	}
	if err := env.fs.FlipBit(segmentName(e.loc.Seg), int64(e.loc.Off)+int64(e.loc.Len)/2, 3); err != nil {
		t.Fatalf("FlipBit: %v", err)
	}

	before := env.fs.Stats().Reads
	_, err = s.Read(cid)
	if !errors.Is(err, ErrTampered) {
		t.Fatalf("reading corrupted chunk: got %v, want ErrTampered", err)
	}
	if errors.Is(err, ErrIO) {
		t.Fatalf("integrity failure misclassified as I/O failure: %v", err)
	}
	delta := env.fs.Stats().Reads - before
	if delta != 1 {
		t.Fatalf("corrupted chunk was read %d times, want exactly 1 (no retry on ErrTampered)", delta)
	}
}
