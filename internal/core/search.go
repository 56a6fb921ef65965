package core

import (
	"pimkd/internal/geom"
	"pimkd/internal/mathx"
	"pimkd/internal/parallel"
	"pimkd/internal/pim"
)

// LeafSearch routes a batch of query points to their leaves and returns one
// leaf id per query (Nil on an empty tree). The batch executes Algorithm 4:
// queries scatter evenly over the modules to traverse the fully replicated
// Group 0 locally, then descend group by group using push-pull search —
// components with fewer pending queries than the τ threshold are pushed to
// the module holding the component's cache, while contended components are
// pulled node-by-node to the CPU so no module becomes a straggler.
func (t *Tree) LeafSearch(qs []geom.Point) []NodeID {
	leaves, _ := t.leafSearchBatch(qs, 0)
	return leaves
}

// LeafItems returns the items stored in leaf id.
func (t *Tree) LeafItems(id NodeID) []Item {
	if id == Nil {
		return nil
	}
	return t.nd(id).pts
}

// Contains reports, for each queried item, whether an item with the same
// coordinates and ID is stored — one batched LeafSearch plus a bucket scan
// per query.
func (t *Tree) Contains(items []Item) []bool {
	out := make([]bool, len(items))
	if t.root == Nil || len(items) == 0 {
		return out
	}
	qs := make([]geom.Point, len(items))
	for i, it := range items {
		qs[i] = it.P
	}
	leaves := t.LeafSearch(qs)
	t.mach.RunRound(func(r *pim.Round) {
		r.Label("core/contains:scan")
		for i, leaf := range leaves {
			nd := t.nd(leaf)
			r.ModuleWork(int(nd.module), int64(len(nd.pts)))
			for _, it := range nd.pts {
				if it.ID == items[i].ID && it.P.Equal(items[i].P) {
					out[i] = true
					break
				}
			}
			r.Transfer(int(nd.module), 1)
		}
	})
	return out
}

// bumpReq records a pending approximate-counter update at the lowest
// on-path node of one group for one query.
type bumpReq struct {
	node NodeID
	q    int32
}

// leafSearchBatch is the shared engine behind LeafSearch and the
// insert/delete helper: delta = +1/-1 additionally performs probabilistic
// counter updates at every group boundary on each search path and returns
// the sorted set of nodes whose counters actually fired.
func (t *Tree) leafSearchBatch(qs []geom.Point, delta int) (leaves []NodeID, fired []NodeID) {
	n := len(qs)
	leaves = make([]NodeID, n)
	for i := range leaves {
		leaves[i] = Nil
	}
	if t.root == Nil || n == 0 {
		return leaves, nil
	}
	p := t.mach.P()
	qw := queryWords(t.cfg.Dim)
	nw := nodeWords(t.cfg.Dim)

	// Trace label for the operation driving this batch: plain searches,
	// insert stage 1, or delete stage 1.
	op := "core/search"
	if delta > 0 {
		op = "core/insert"
	} else if delta < 0 {
		op = "core/delete"
	}

	firedSet := map[NodeID]bool{}
	frontier := map[NodeID][]int32{}

	sc := &t.scratch

	// Wave 0: traverse Group 0 on evenly loaded modules (Group 0 is
	// replicated everywhere, so any module can route any query — the top of
	// the tree is skew-proof by replication, not by luck).
	t.mach.RunRound(func(r *pim.Round) {
		r.Label(op + ":group0")
		var bumps []bumpReq
		if t.nd(t.root).group != 0 {
			// No Group 0 (small tree): the whole batch starts at the root.
			frontier[t.root] = identityQueries(n)
		} else {
			sc.reset(p)
			perMod, exitN, exitQ, bumpsPer := sc.perMod, sc.exitN, sc.exitQ, sc.bumpsPer
			for i := 0; i < n; i++ {
				perMod[i%p] = append(perMod[i%p], int32(i))
			}
			r.OnModules(func(ctx *pim.ModuleCtx) {
				m := ctx.ID()
				ctx.Transfer(int64(len(perMod[m])) * qw)
				var work int64
				for _, qi := range perMod[m] {
					id := t.root
					for {
						nd := t.nd(id)
						work++
						if nd.leaf {
							// A Group-0 leaf: terminal here.
							exitN[m] = append(exitN[m], id)
							exitQ[m] = append(exitQ[m], qi)
							if delta != 0 {
								bumpsPer[m] = append(bumpsPer[m], bumpReq{id, qi})
							}
							break
						}
						var next NodeID
						if qs[qi][nd.axis] < nd.split {
							next = nd.left
						} else {
							next = nd.right
						}
						if t.nd(next).group != 0 {
							// id is the lowest Group-0 node on this path.
							if delta != 0 {
								bumpsPer[m] = append(bumpsPer[m], bumpReq{id, qi})
							}
							exitN[m] = append(exitN[m], next)
							exitQ[m] = append(exitQ[m], qi)
							break
						}
						id = next
					}
				}
				ctx.Work(work)
				ctx.Transfer(int64(len(perMod[m]))) // results back to CPU
			})
			for m := 0; m < p; m++ {
				for i, id := range exitN[m] {
					qi := exitQ[m][i]
					if t.nd(id).group == 0 { // group-0 leaf, already final
						leaves[qi] = id
						continue
					}
					frontier[id] = append(frontier[id], qi)
				}
				bumps = append(bumps, bumpsPer[m]...)
			}
		}
		r.CPUSpan(int64(mathx.CeilLog2(n) + 1))
		t.applyBumps(bumps, delta, r, firedSet)
	})

	// Descend wave by wave until every query has landed in a leaf.
	for len(frontier) > 0 {
		next := map[NodeID][]int32{}
		var bumps []bumpReq
		t.mach.RunRound(func(r *pim.Round) {
			r.Label(op + ":pushpull")
			entries := make([]NodeID, 0, len(frontier))
			for id := range frontier {
				entries = append(entries, id)
			}
			parallel.Sort(entries, func(a, b NodeID) bool { return a < b })

			sc.reset(p)
			pushes, exitN, exitQ, bumpsPer := sc.pushes, sc.exitN, sc.exitQ, sc.bumpsPer

			for _, entry := range entries {
				queries := frontier[entry]
				nd := t.nd(entry)
				g := nd.group
				switch {
				case nd.leaf && len(queries) >= t.tau[maxInt16(g, 1)]:
					// Contended leaf: pull the leaf (node + bucket) to the
					// CPU once instead of shipping every query to its
					// module — the push-pull rule applied at the last level.
					t.OpStats.Pulls++
					r.Transfer(int(nd.module), nw+int64(len(nd.pts))*pointWords(t.cfg.Dim))
					r.CPUWork(int64(len(queries)) + 1)
					for _, qi := range queries {
						leaves[qi] = entry
						if delta != 0 {
							bumps = append(bumps, bumpReq{entry, qi})
						}
					}
				case nd.leaf:
					// Terminal: the query (and its counter bump, the leaf
					// being the lowest node of its group) lands here.
					mod := int(nd.module)
					r.Transfer(mod, int64(len(queries))*qw)
					r.ModuleWork(mod, int64(len(queries)))
					r.Transfer(mod, int64(len(queries)))
					for _, qi := range queries {
						leaves[qi] = entry
						if delta != 0 {
							bumps = append(bumps, bumpReq{entry, qi})
						}
					}
				case len(queries) >= t.tau[g]:
					// PULL: fetch this node to the CPU, route there, and
					// recurse on the children next wave.
					t.OpStats.Pulls++
					r.Transfer(int(nd.module), nw)
					r.CPUWork(int64(len(queries)) + 1)
					for _, qi := range queries {
						var c NodeID
						if qs[qi][nd.axis] < nd.split {
							c = nd.left
						} else {
							c = nd.right
						}
						if delta != 0 && t.nd(c).group != g {
							bumps = append(bumps, bumpReq{entry, qi})
						}
						next[c] = append(next[c], qi)
					}
				case !t.cachedGroup(g):
					// Distributed levels (space-optimized variants or
					// master-only placements): hop node by node down to the
					// leaf, one remote access per level.
					for _, qi := range queries {
						id := entry
						for {
							cur := t.nd(id)
							mod := int(cur.module)
							r.Transfer(mod, qw)
							r.ModuleWork(mod, 1)
							if cur.leaf {
								leaves[qi] = id
								if delta != 0 {
									bumps = append(bumps, bumpReq{id, qi})
								}
								break
							}
							var nxt NodeID
							if qs[qi][cur.axis] < cur.split {
								nxt = cur.left
							} else {
								nxt = cur.right
							}
							if delta != 0 && t.nd(nxt).group != cur.group {
								bumps = append(bumps, bumpReq{id, qi})
							}
							id = nxt
						}
					}
				default:
					// PUSH to the module holding this node's intra-group
					// cache (its master module, by top-down caching).
					t.OpStats.Pushes++
					pushes[nd.module] = append(pushes[nd.module], pushTask{entry, queries})
				}
			}

			// Execute pushes concurrently, each module's tasks in its own
			// program. Each query index appears in exactly one task, so
			// writes to leaves[qi] are race-free.
			r.OnModules(func(ctx *pim.ModuleCtx) {
				m := ctx.ID()
				for _, task := range pushes[m] {
					g := t.nd(task.entry).group
					unf := t.componentUnfinished(task.entry)
					ctx.Transfer(int64(len(task.queries)) * qw)
					var work int64
					for _, qi := range task.queries {
						id := task.entry
						for {
							cur := t.nd(id)
							if unf && id != task.entry {
								// Unfinished component: no cache yet, so
								// each step is a remote hop (Lemma 3.9).
								ctx.Round().Transfer(int(cur.module), qw)
								ctx.Round().ModuleWork(int(cur.module), 1)
							} else {
								work++
							}
							if cur.leaf {
								leaves[qi] = id
								if delta != 0 {
									bumpsPer[m] = append(bumpsPer[m], bumpReq{id, qi})
								}
								break
							}
							var nxt NodeID
							if qs[qi][cur.axis] < cur.split {
								nxt = cur.left
							} else {
								nxt = cur.right
							}
							if t.nd(nxt).group != g {
								// Exiting the component: id was the lowest
								// in-group node on this path.
								if delta != 0 {
									bumpsPer[m] = append(bumpsPer[m], bumpReq{id, qi})
								}
								exitN[m] = append(exitN[m], nxt)
								exitQ[m] = append(exitQ[m], qi)
								break
							}
							id = nxt
						}
					}
					ctx.Work(work)
					ctx.Transfer(int64(len(task.queries))) // exits back to CPU
				}
			})
			for m := 0; m < p; m++ {
				for i, id := range exitN[m] {
					next[id] = append(next[id], exitQ[m][i])
				}
				bumps = append(bumps, bumpsPer[m]...)
			}
			r.CPUSpan(int64(mathx.CeilLog2(len(entries)+1) + 1))
			t.applyBumps(bumps, delta, r, firedSet)
		})
		frontier = next
	}

	fired = make([]NodeID, 0, len(firedSet))
	for id := range firedSet {
		fired = append(fired, id)
	}
	parallel.Sort(fired, func(a, b NodeID) bool { return a < b })
	return leaves, fired
}

// pushTask is one pushed frontier entry: the queries that descend from
// entry inside its component's module.
type pushTask struct {
	entry   NodeID
	queries []int32
}

// searchScratch holds a tree's per-module LeafSearch wave buffers. Each
// wave truncates them and refills them, so the batch path reuses their
// capacity instead of rebuilding P slices per wave. Module m's program
// appends only to index m.
type searchScratch struct {
	perMod   [][]int32
	exitN    [][]NodeID
	exitQ    [][]int32
	bumpsPer [][]bumpReq
	pushes   [][]pushTask
}

// reset sizes every buffer to p modules and empties it.
func (s *searchScratch) reset(p int) {
	s.perMod = resetLists(s.perMod, p)
	s.exitN = resetLists(s.exitN, p)
	s.exitQ = resetLists(s.exitQ, p)
	s.bumpsPer = resetLists(s.bumpsPer, p)
	s.pushes = resetLists(s.pushes, p)
}

// resetLists returns p empty lists, reusing l's when it has p of them.
// Emptied elements are zeroed so they hold no stale references.
func resetLists[T any](l [][]T, p int) [][]T {
	if len(l) != p {
		return make([][]T, p)
	}
	for i := range l {
		clear(l[i])
		l[i] = l[i][:0]
	}
	return l
}

func maxInt16(a, b int16) int16 {
	if a > b {
		return a
	}
	return b
}

func identityQueries(n int) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(i)
	}
	return out
}

// applyBumps performs the probabilistic counter updates collected in a
// wave. A fired update increments (or decrements) the boundary node and all
// its in-group ancestors, propagating the new values to every replica; the
// fan-out communication is metered to the replica-holding modules.
func (t *Tree) applyBumps(bumps []bumpReq, delta int, r *pim.Round, firedSet map[NodeID]bool) {
	if delta == 0 || len(bumps) == 0 {
		return
	}
	parallel.Sort(bumps, func(a, b bumpReq) bool {
		if a.node != b.node {
			return a.node < b.node
		}
		return a.q < b.q
	})
	nF := float64(t.size)
	if nF < 2 {
		nF = 2
	}
	for _, b := range bumps {
		t.OpStats.CounterAttempts++
		nd := t.nd(b.node)
		u := coin(t.salt, uint64(b.node), uint64(b.q), t.epoch)
		var firedNow bool
		var step float64
		if delta > 0 {
			firedNow, step = nd.count.IncU(u, nF, t.cfg.Beta)
		} else {
			firedNow, step = nd.count.DecU(u, nF, t.cfg.Beta)
		}
		if !firedNow {
			continue
		}
		t.OpStats.CounterFires++
		firedSet[b.node] = true
		t.meterCounterWrite(b.node, r)
		// The same write also refreshes the counters of the node's
		// in-group ancestors (they share the replicated component cache).
		g := nd.group
		for a := nd.parent; a != Nil && t.nd(a).group == g; a = t.nd(a).parent {
			an := t.nd(a)
			if delta > 0 {
				an.count.Set(an.count.Value() + step)
			} else {
				v := an.count.Value() - step
				if v < 0 {
					v = 0
				}
				an.count.Set(v)
			}
			firedSet[a] = true
			t.meterCounterWrite(a, r)
		}
	}
	t.epoch++
}

// meterCounterWrite charges the communication of writing one counter value
// to a node's master and every replica.
func (t *Tree) meterCounterWrite(id NodeID, r *pim.Round) {
	nd := t.nd(id)
	if nd.group == 0 {
		r.ChargeAll(1, 1)
		return
	}
	r.Transfer(int(nd.module), 1)
	r.ModuleWork(int(nd.module), 1)
	for _, m := range nd.copies {
		r.Transfer(int(m), 1)
		r.ModuleWork(int(m), 1)
	}
}

// coin derives a deterministic uniform in [0,1) from the tree salt, a node,
// a query, and the batch epoch — race-free randomness for counter updates.
func coin(salt, node, q, epoch uint64) float64 {
	h := pim.Mix64(salt ^ node*0x9e3779b97f4a7c15 ^ (q + epoch*0x100000001b3))
	return float64(h>>11) / float64(1<<53)
}
