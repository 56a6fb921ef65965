package serve

import (
	"context"
	"math"
	"runtime"
	"slices"
	"time"
)

// submit is the single admission path: acquire a backpressure token, enqueue
// the request into its forming batch (sealing it on MaxBatch, or at once when
// the executor is idle), and wait for the reply. The token is released by the
// executor when the reply is delivered, bounding admitted-but-unreplied
// requests at MaxPending.
func (s *Service) submit(ctx context.Context, req *request) (reply, error) {
	// Load shedding: above the high-water mark, fail fast instead of
	// queueing — a saturated service that keeps admitting work only grows
	// its tail latency. The check is advisory (len on a channel races with
	// concurrent admits), which is fine: shedding is a pressure valve, not
	// an exact capacity proof.
	if hw := s.cfg.ShedHighWater; hw > 0 && len(s.tokens) >= hw {
		s.metrics.shed()
		return reply{}, ErrOverloaded
	}

	// Admission with backpressure.
	select {
	case s.tokens <- struct{}{}:
	case <-s.closing:
		return reply{}, ErrClosed
	case <-ctx.Done():
		return reply{}, ctx.Err()
	}

	req.enq = time.Now()
	req.ctx = ctx
	req.done = make(chan reply, 1)

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		<-s.tokens
		return reply{}, ErrClosed
	}
	key := batchKey{kind: req.kind, k: req.k, radiusBits: math.Float64bits(req.radius), unique: req.unique}
	q := s.pending[key]
	if q == nil {
		q = &pendingQueue{}
		s.pending[key] = q
	}
	q.reqs = append(q.reqs, req)
	if len(q.reqs) == 1 {
		q.firstEnq = req.enq
	}
	switch {
	case len(q.reqs) >= s.cfg.MaxBatch:
		s.sealLocked(key, "full")
	case s.idle:
		// Nothing is executing, so lingering would only add latency: the
		// executor's service time, not a timer, sets the batch width.
		s.sealLocked(key, "idle")
	case len(q.reqs) == 1:
		q.gen++
		gen := q.gen
		q.timer = time.AfterFunc(s.cfg.MaxLinger, func() { s.sealOnLinger(key, gen) })
	}
	s.mu.Unlock()

	// Wait for the reply. A caller whose context ends while its batch is
	// still forming withdraws the request and releases the admission slot
	// immediately; once the batch is sealed the executor owns the request
	// and will release the slot when it replies (into the buffered done
	// channel, so nothing blocks on the departed caller).
	select {
	case rep := <-req.done:
		return rep, rep.err
	case <-ctx.Done():
		if s.abandon(key, req) {
			<-s.tokens
		}
		return reply{}, ctx.Err()
	}
}

// abandon withdraws req from its still-forming batch. It returns false when
// the batch was already sealed (or the request already executed), in which
// case the executor remains responsible for the admission token.
func (s *Service) abandon(key batchKey, req *request) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	q := s.pending[key]
	if q == nil {
		return false
	}
	for i, r := range q.reqs {
		if r != req {
			continue
		}
		q.reqs = append(q.reqs[:i], q.reqs[i+1:]...)
		if len(q.reqs) == 0 {
			if q.timer != nil {
				q.timer.Stop()
			}
			delete(s.pending, key)
		}
		s.metrics.canceled()
		return true
	}
	return false
}

// sealOnLinger is the MaxLinger deadline callback for one forming batch.
// The generation check discards stale timers that fire after their queue
// was already sealed by reaching MaxBatch.
func (s *Service) sealOnLinger(key batchKey, gen uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	q := s.pending[key]
	if q == nil || q.gen != gen || len(q.reqs) == 0 {
		return
	}
	s.sealLocked(key, "linger")
}

// sealIdle runs on the executor after each batch. When no sealed batch is
// waiting it seals every forming batch, oldest first, rather than let them
// linger behind an executor with nothing to do; it marks the executor idle
// only when nothing was forming, so the next request seals on arrival.
//
// Before it concludes that nothing is forming it yields once: callers the
// batch just answered, and others that are runnable but have not been
// scheduled, submit first. Without the yield a host with one core
// ping-pongs between one caller and the executor and every batch holds
// one request.
func (s *Service) sealIdle() {
	for yielded := false; ; yielded = true {
		s.mu.Lock()
		if s.closed || len(s.batchCh) > 0 {
			s.mu.Unlock()
			return
		}
		if len(s.pending) > 0 {
			break
		}
		if yielded {
			s.idle = true
			s.mu.Unlock()
			return
		}
		s.mu.Unlock()
		runtime.Gosched()
	}
	defer s.mu.Unlock()
	keys := s.sealOrder[:0]
	for key := range s.pending {
		keys = append(keys, key)
	}
	slices.SortFunc(keys, func(a, b batchKey) int {
		return s.pending[a].firstEnq.Compare(s.pending[b].firstEnq)
	})
	for _, key := range keys {
		s.sealLocked(key, "idle")
	}
	s.sealOrder = keys
}

// sealLocked closes the forming batch for key and hands it to the executor,
// which is then busy. Callers hold s.mu. The send cannot block: batchCh has
// capacity MaxPending and every queued batch carries at least one admitted
// request.
func (s *Service) sealLocked(key batchKey, by string) {
	q := s.pending[key]
	if q == nil || len(q.reqs) == 0 {
		return
	}
	if q.timer != nil {
		q.timer.Stop()
	}
	delete(s.pending, key)
	s.idle = false
	s.batchCh <- &batch{
		key:      key,
		reqs:     q.reqs,
		firstEnq: q.firstEnq,
		sealed:   time.Now(),
		sealedBy: by,
	}
}
