package serve

import (
	"testing"

	"pimkd/internal/geom"
	"pimkd/internal/shard"
)

// TestShardListenerStashEndsWithThePull: a puller that stops after a
// partial page — the rebalancer's strided split sample does — returns its
// conn to the pool, so the next frame on that conn must drop the stashed
// whole-cell cut instead of pinning it until the conn dies.
func TestShardListenerStashEndsWithThePull(t *testing.T) {
	svc, _ := newTestService(t, 500, Config{})
	defer svc.Close()
	sl := &ShardListener{svc: svc}
	var stash snapStash
	var mig migStash
	box := geom.NewBox(geom.Point{0, 0}, geom.Point{1, 1})

	resp, ok := sl.dispatch(shard.CellSnapshotReq{Cell: 3, Box: box, Limit: 100}, &stash, &mig).(shard.CellSnapshotResp)
	if !ok || resp.Total != 500 || len(resp.Items) != 100 {
		t.Fatalf("first page: %+v", resp)
	}
	if !stash.valid || len(stash.snap.Items) != 500 {
		t.Fatalf("a partial first page left no stash (valid %v, %d items)", stash.valid, len(stash.snap.Items))
	}
	next, ok := sl.dispatch(shard.CellSnapshotReq{Cell: 3, Box: box, Offset: 100, Limit: 100}, &stash, &mig).(shard.CellSnapshotResp)
	if !ok || next.Total != 500 || len(next.Items) != 100 || !stash.valid {
		t.Fatalf("second page: %d of %d items, stash valid %v", len(next.Items), next.Total, stash.valid)
	}

	if _, ok := sl.dispatch(shard.Ping{}, &stash, &mig).(shard.Pong); !ok {
		t.Fatal("ping failed")
	}
	if stash.valid || stash.snap.Items != nil {
		t.Fatalf("a ping after a partial pull left the %d-item cut stashed", len(stash.snap.Items))
	}
}
