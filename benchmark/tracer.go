package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"pimkd/internal/pim"
	"pimkd/internal/serve"
)

// Tracing from outside the program: spans are recorded by the benchmark
// around its calls into each layer and from the hooks the layers already
// export (pim.Observer, serve.Config.OnBatch, persist.Options.OnCheckpoint).
// They are kept in memory and written once, when the pass ends. A pass with
// a nil *tracer records nothing and installs no observer.

type span struct {
	Name   string
	Cat    string // request | serve.batch | pim.round | persist.checkpoint | core.call
	Start  int64  // ns since the tracer's epoch
	End    int64
	ID     int32
	Parent int32 // 0 = none
	Track  int32 // one row per machine / caller group in the viewer
}

type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) since(at time.Time) int64 { return int64(at.Sub(t.epoch)) }

// add records a span and returns its id.
func (t *tracer) add(s span) int32 {
	t.mu.Lock()
	s.ID = int32(len(t.spans) + 1)
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s.ID
}

// roundRec is what the benchmark keeps of a pim.RoundRecord.
type roundRec struct {
	label string
	start int64
	wall  int64
}

// roundLog is a pim.Observer for one machine. ObserveRound runs on the
// goroutine that finishes the round; the lock only guards against the
// reader that drains the log after the pass.
type roundLog struct {
	t     *tracer
	track int32
	mu    sync.Mutex
	recs  []roundRec
}

func (l *roundLog) ObserveRound(rec pim.RoundRecord) {
	l.mu.Lock()
	l.recs = append(l.recs, roundRec{label: rec.Label, start: l.t.since(rec.Start), wall: int64(rec.Wall)})
	l.mu.Unlock()
}

// observe attaches a round log to mach, or nothing when t is nil.
func (t *tracer) observe(mach *pim.Machine, track int32) *roundLog {
	if t == nil {
		return nil
	}
	l := &roundLog{t: t, track: track}
	mach.SetObserver(l)
	return l
}

// drain returns the rounds recorded since the last drain.
func (l *roundLog) drain() []roundRec {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	recs := l.recs
	l.recs = nil
	l.mu.Unlock()
	return recs
}

// callSpan records one core.call span with the rounds it caused as
// children, and returns the call's self time: its wall minus the part its
// rounds cover.
func (t *tracer) callSpan(name string, start time.Time, wall time.Duration, l *roundLog) (self, roundWall int64, rounds int) {
	recs := l.drain()
	id := t.add(span{Name: name, Cat: "core.call", Start: t.since(start), End: t.since(start) + int64(wall), Track: l.track})
	for _, r := range recs {
		t.add(span{Name: r.label, Cat: "pim.round", Start: r.start, End: r.start + r.wall, Parent: id, Track: l.track})
		roundWall += r.wall
	}
	return int64(wall) - roundWall, roundWall, len(recs)
}

// batchKey identifies a served batch from both sides: the executor's
// BatchRecord and the BatchInfo each caller gets back carry the same kind,
// epoch, size and linger, and linger is in nanoseconds, so the tuple is
// unique in practice.
type batchKey struct {
	kind   string
	epoch  int64
	size   int
	linger time.Duration
}

func keyOfInfo(b serve.BatchInfo) batchKey {
	return batchKey{b.Kind, b.Epoch, b.Size, b.Linger}
}

// batchRec is one served batch as seen through OnBatch, later joined with
// the rounds labelled "serve/<kind>/batch=<seq>/...".
type batchRec struct {
	key      batchKey
	seq      int64
	sealedBy string
	end      int64 // OnBatch time
	// Filled by join: first round start, summed round wall, round count.
	first  int64
	rounds int64
	nround int
	spanID int32
}

// exec is the batch's execution time: first round start to OnBatch.
func (b *batchRec) exec() int64 {
	if b.nround == 0 {
		return 0
	}
	return b.end - b.first
}

// batchLog collects OnBatch records of one service. OnBatch runs on the
// executor goroutine; seq counts invocations, which is the service's own
// batch sequence number because both count executed batches from 1.
type batchLog struct {
	t    *tracer
	mu   sync.Mutex
	recs []batchRec
}

func (l *batchLog) onBatch(rec serve.BatchRecord) {
	now := time.Now()
	l.mu.Lock()
	l.recs = append(l.recs, batchRec{
		key:      batchKey{rec.Kind, rec.Epoch, rec.Size, rec.Linger},
		seq:      int64(len(l.recs) + 1),
		sealedBy: rec.SealedBy,
		end:      l.t.since(now),
	})
	l.mu.Unlock()
}

// join attributes rounds to batches by label, records serve.batch spans
// with their pim.round children, and returns the batches by key.
func (l *batchLog) join(rounds []roundRec, track int32) map[batchKey]*batchRec {
	l.mu.Lock()
	recs := l.recs
	l.mu.Unlock()
	bySeq := make(map[int64]*batchRec, len(recs))
	for i := range recs {
		bySeq[recs[i].seq] = &recs[i]
	}
	owner := make([]*batchRec, len(rounds))
	for i, r := range rounds {
		b := bySeq[batchSeqOf(r.label)]
		if b == nil {
			continue
		}
		owner[i] = b
		if b.nround == 0 || r.start < b.first {
			b.first = r.start
		}
		b.rounds += r.wall
		b.nround++
	}
	byKey := make(map[batchKey]*batchRec, len(recs))
	for i := range recs {
		b := &recs[i]
		byKey[b.key] = b
		if b.nround > 0 {
			b.spanID = l.t.add(span{Name: fmt.Sprintf("%s x%d (%s)", b.key.kind, b.key.size, b.sealedBy), Cat: "serve.batch", Start: b.first, End: b.end, Track: track})
		}
	}
	for i, r := range rounds {
		parent := int32(0)
		if owner[i] != nil {
			parent = owner[i].spanID
		}
		l.t.add(span{Name: r.label, Cat: "pim.round", Start: r.start, End: r.start + r.wall, Parent: parent, Track: track})
	}
	return byKey
}

// batchSeqOf parses n out of "serve/<kind>/batch=<n>/...", 0 if absent.
func batchSeqOf(label string) int64 {
	if !strings.HasPrefix(label, "serve/") {
		return 0
	}
	i := strings.Index(label, "/batch=")
	if i < 0 {
		return 0
	}
	rest := label[i+len("/batch="):]
	if j := strings.IndexByte(rest, '/'); j >= 0 {
		rest = rest[:j]
	}
	n, err := strconv.ParseInt(rest, 10, 64)
	if err != nil {
		return 0
	}
	return n
}

// requestSpanStride thins the request spans written to the file (every
// stride-th request) so a 100k-request pass stays loadable; the metrics use
// every request.
const requestSpanStride = 8

// write stores the spans as Chrome/Perfetto trace-event JSON.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int32          `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	w.WriteString("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n")
	t.mu.Lock()
	for i, s := range t.spans {
		ev := event{Name: s.Name, Cat: s.Cat, Ph: "X", TS: us(s.Start), Dur: us(s.End - s.Start), PID: 1, TID: s.Track,
			Args: map[string]any{"id": s.ID, "parent": s.Parent}}
		b, err := json.Marshal(ev)
		if err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
		if i > 0 {
			w.WriteString(",\n")
		}
		w.Write(b)
	}
	t.mu.Unlock()
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
