package shard_test

import (
	"context"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"pimkd/internal/core"
	"pimkd/internal/geom"
	"pimkd/internal/shard"
)

// Fault modes of a faultProxy. Any positive mode is a wire error code the
// proxy answers data frames with instead of forwarding them.
const (
	forward  int32 = 0  // pass frames to the real shard
	dropConn int32 = -1 // close the conn on a data frame: a transport failure
	// closeListener is a test step, not a proxy mode: close the real
	// shard's listener (and its live conns) and let the proxy forward into it.
	closeListener int32 = -2
)

// faultProxy fronts a real shard on loopback and decides, per data frame,
// whether it reaches the shard. Pings always pass through, so only reads
// move the router's failure count.
type faultProxy struct {
	ln      net.Listener
	backend string
	dim     int
	mode    atomic.Int32
	faulted atomic.Int64 // data frames answered with a fault
}

func startFaultProxy(t *testing.T, backend string, dim int) *faultProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &faultProxy{ln: ln, backend: backend, dim: dim}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			go p.serve(nc)
		}
	}()
	return p
}

func (p *faultProxy) serve(nc net.Conn) {
	defer nc.Close()
	be, err := net.Dial("tcp", p.backend)
	if err != nil {
		return
	}
	defer be.Close()
	if _, err := shard.ReadHandshake(be); err != nil || shard.WriteHandshake(nc, p.dim) != nil {
		return
	}
	for {
		payload, err := shard.ReadFrame(nc)
		if err != nil {
			return
		}
		reqID, m, err := shard.DecodePayload(payload, p.dim)
		if err != nil {
			return
		}
		var resp any
		_, ping := m.(shard.Ping)
		switch mode := p.mode.Load(); {
		case ping || mode == forward:
			if _, err := be.Write(shard.EncodeFrame(reqID, m, p.dim)); err != nil {
				return
			}
			out, err := shard.ReadFrame(be)
			if err != nil {
				return
			}
			if _, resp, err = shard.DecodePayload(out, p.dim); err != nil {
				return
			}
		case mode > 0:
			p.faulted.Add(1)
			resp = &shard.RemoteError{Code: uint16(mode), Msg: "injected"}
		default:
			p.faulted.Add(1)
			return
		}
		if _, err := nc.Write(shard.EncodeFrame(reqID, resp, p.dim)); err != nil {
			return
		}
	}
}

func repeatMode(mode int32, n int) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = mode
	}
	return out
}

// TestReadHealthRules pins the read path's health accounting over a real
// loopback shard behind a fault proxy: each read makes one attempt per
// replica, only transport failures count toward FailThreshold, a success
// resets the count, a shard-side refusal (retryable or not) never marks a
// live shard unhealthy, and a read whose replica fails is answered by the
// other replica within the same request. Every read is a range over one
// cell, so a request that picks the failing replica has no other response
// covering that cell and must fail over to finish.
func TestReadHealthRules(t *testing.T) {
	const (
		dim       = 2
		threshold = 3
	)
	rows := []struct {
		name        string
		replication int
		reads       []int32 // proxy mode in front of shard 0, per read
		wantHealthy bool
	}{
		{"retryable unavailable", 1, repeatMode(int32(shard.CodeUnavailable), threshold+1), true},
		{"retryable not ready", 1, repeatMode(int32(shard.CodeNotReady), threshold+1), true},
		{"non-retryable bad request", 1, repeatMode(int32(shard.CodeBadRequest), threshold+1), true},
		{"non-retryable internal", 1, repeatMode(int32(shard.CodeInternal), threshold+1), true},
		{"transport closed listener", 1, repeatMode(closeListener, threshold+1), false},
		{"success resets the count", 1, []int32{dropConn, dropConn, forward, dropConn, dropConn}, true},
		{"failover past a refusing replica", 2, repeatMode(int32(shard.CodeUnavailable), threshold+1), true},
		{"failover past a dropped conn", 2, repeatMode(dropConn, threshold-1), true},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			part, err := shard.NewUniformPartition(dim, 2, unitBox())
			if err != nil {
				t.Fatal(err)
			}
			s0 := startShard(t, dim, 1, "", "127.0.0.1:0")
			defer s0.stop()
			s1 := startShard(t, dim, 2, "", "127.0.0.1:0")
			defer s1.stop()
			proxy := startFaultProxy(t, s0.addr, dim)
			// Probes and sweeps off: only the reads below touch shard 0's health.
			router, err := shard.NewRouter(part, []string{proxy.ln.Addr().String(), s1.addr}, shard.Config{
				Replication:   row.replication,
				Timeout:       2 * time.Second,
				FailThreshold: threshold,
				ProbeInterval: time.Hour,
				SweepInterval: -1,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer router.Close()

			// box lies inside cell 0, whose primary is shard 0.
			box := geom.NewBox(geom.Point{0, 0}, geom.Point{0.45, 1})
			for c := 0; c < part.Cells(); c++ {
				if part.Cell(c).Intersects(box) != (c == 0) {
					t.Fatalf("read box must intersect cell 0 only (cell %d)", c)
				}
			}
			ctx := context.Background()
			var items []core.Item
			inBox := 0
			for i := 0; i < 40; i++ {
				p := geom.Point{float64(i%8)/8 + 0.05, float64(i/8)/5 + 0.05}
				items = append(items, core.Item{ID: int32(i), P: p})
				if p[0] < box.Hi[0] {
					inBox++
				}
			}
			if acked, err := router.BatchUpdate(ctx, false, items); err != nil || acked != len(items) {
				t.Fatalf("seeding: acked %d/%d, err %v", acked, len(items), err)
			}

			faults := int64(0)
			for i, mode := range row.reads {
				switch mode {
				case closeListener:
					s0.ln.Close()
					proxy.mode.Store(forward)
				case forward:
					proxy.mode.Store(forward)
				default:
					faults++
					proxy.mode.Store(mode)
				}
				got, _, err := router.Range(ctx, box)
				if mode == forward || row.replication > 1 {
					if err != nil || len(got) != inBox {
						t.Fatalf("read %d: %d items, err %v; want %d", i, len(got), err, inBox)
					}
				} else if err == nil {
					t.Fatalf("read %d: succeeded although shard 0 failed with no other replica", i)
				}
			}
			if got := router.Status()[0].Healthy; got != row.wantHealthy {
				t.Errorf("shard 0 healthy = %v after reads %v, want %v", got, row.reads, row.wantHealthy)
			}
			// At R=1 every faulted read tries shard 0 exactly once; at R=2
			// the read rotation picks it first for some reads, never twice.
			got := proxy.faulted.Load()
			if row.replication == 1 && got != faults || row.replication > 1 && (got < 1 || got > faults) {
				t.Errorf("shard 0 saw %d faulted read attempts over %d faulted reads at R=%d",
					got, faults, row.replication)
			}
		})
	}
}
