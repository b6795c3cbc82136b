package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// spanName enumerates the layer boundaries the benchmark records spans
// around: every call a client makes into tdb and every call the program
// makes into the device wrapper. Spans inside the program are a later
// change (choosing-metrics §4).
type spanName uint8

const (
	spOp spanName = iota // one whole client operation
	spBegin
	spQuery     // Query* + first Next: the collection index walk
	spDeref     // ReadAs / WriteAs
	spIterClose // Iterator.Close: deferred index maintenance
	spObjOpen   // raw object API open
	spCommit    // Commit / Abort of the transaction
	spDevRead
	spDevWrite
	spDevSync
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"client.op", "tdb.begin", "collection.query", "collection.deref",
	"collection.iter_close", "objectstore.open", "tdb.commit",
	"platform.read", "platform.write", "platform.sync",
}

// span is one recorded interval. Start and End are nanoseconds since the
// tracer's epoch; Parent is the op span that caused it (0 when unknown: a
// device call made while two clients are active cannot be pinned on one).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Client int    `json:"client"`
}

// maxRawSpans bounds the spans one recorder keeps verbatim for the trace
// file; past it only the per-name aggregates grow, so a traced read-hot run
// (millions of spans) stays within a fixed memory budget.
const maxRawSpans = 1 << 14

type rawSpan struct {
	name       spanName
	start, end int64
	id, op     int64
}

// recorder collects the spans of one goroutine (a client) without locking.
// A nil *recorder is the tracing-off state: every method is a no-op, so the
// untraced run pays one nil check per boundary.
type recorder struct {
	tr     *tracer
	client int
	seq    int64
	curOp  int64
	raw    []rawSpan
	count  [numSpanNames]int64
	total  [numSpanNames]int64 // ns
}

// tracer owns the recorders of a traced phase: one per client plus a
// mutex-guarded one for the device wrapper, which is called from whichever
// goroutine the program happens to do I/O on.
type tracer struct {
	epoch   time.Time
	clients []*recorder

	devMu sync.Mutex
	dev   recorder
	// soleOp is the current op id of the only client, when there is exactly
	// one: the device recorder parents its spans on it.
	soleOp atomic.Int64
}

func newTracer(clients int) *tracer {
	tr := &tracer{epoch: time.Now()}
	for c := 0; c < clients; c++ {
		tr.clients = append(tr.clients, &recorder{tr: tr, client: c})
	}
	tr.dev = recorder{tr: tr, client: -1}
	return tr
}

// client returns client c's recorder; nil when tracing is off.
func (tr *tracer) client(c int) *recorder {
	if tr == nil {
		return nil
	}
	return tr.clients[c]
}

func (r *recorder) now() int64 {
	if r == nil {
		return 0
	}
	return int64(time.Since(r.tr.epoch))
}

func (r *recorder) nextID() int64 {
	r.seq++
	return int64(r.client+2)<<40 | r.seq
}

// beginOp opens a client operation and returns its start time.
func (r *recorder) beginOp() int64 {
	if r == nil {
		return 0
	}
	r.curOp = r.nextID()
	if len(r.tr.clients) == 1 {
		r.tr.soleOp.Store(r.curOp)
	}
	return r.now()
}

// endOp closes the operation opened by beginOp.
func (r *recorder) endOp(start int64) {
	if r == nil {
		return
	}
	r.record(spOp, start, r.now(), r.curOp, 0)
	r.curOp = 0
	if len(r.tr.clients) == 1 {
		r.tr.soleOp.Store(0)
	}
}

// add records a child span of the current operation that began at start and
// ends now.
func (r *recorder) add(name spanName, start int64) {
	if r == nil {
		return
	}
	r.record(name, start, r.now(), r.nextID(), r.curOp)
}

func (r *recorder) record(name spanName, start, end, id, op int64) {
	r.count[name]++
	r.total[name] += end - start
	if len(r.raw) < maxRawSpans {
		r.raw = append(r.raw, rawSpan{name: name, start: start, end: end, id: id, op: op})
	}
}

// deviceStart is the start time of a device span; the untraced run does not
// read the clock for it.
func (tr *tracer) deviceStart() time.Time {
	if tr == nil {
		return time.Time{}
	}
	return time.Now()
}

// device records one device-wrapper span. Safe from any goroutine.
func (tr *tracer) device(name spanName, start time.Time) {
	if tr == nil {
		return
	}
	end := time.Now()
	op := tr.soleOp.Load()
	tr.devMu.Lock()
	tr.dev.record(name, int64(start.Sub(tr.epoch)), int64(end.Sub(tr.epoch)), tr.dev.nextID(), op)
	tr.devMu.Unlock()
}

func (tr *tracer) recorders() []*recorder {
	return append(tr.clients[:len(tr.clients):len(tr.clients)], &tr.dev)
}

// meanUs is the mean duration of the named span across all recorders, in
// microseconds (0 when none was recorded).
func (tr *tracer) meanUs(name spanName) float64 {
	var n, ns int64
	for _, r := range tr.recorders() {
		n += r.count[name]
		ns += r.total[name]
	}
	if n == 0 {
		return 0
	}
	return float64(ns) / float64(n) / 1e3
}

// write dumps the raw spans as JSON lines.
func (tr *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, r := range tr.recorders() {
		for _, s := range r.raw {
			// A client operation is its own root; everything else hangs
			// off the operation that was current when it ran.
			out := span{
				Name: spanNames[s.name], Start: s.start, End: s.end,
				ID: s.id, Parent: s.op, Op: s.op, Client: r.client,
			}
			if s.name == spOp {
				out.Parent, out.Op = 0, s.id
			}
			if err := enc.Encode(out); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
