package core

import (
	"fmt"

	"pimkd/internal/pim"
)

// RecoverModule re-ships module mod's shard from the host-side
// authoritative tree after the module's (simulated) memory was lost to a
// crash. The arena is the source of truth — node placement (`module`,
// `copies`, Group-0 full replication) only records where copies live — so
// recovery is a pure data-movement round: every node resident on mod (its
// masters, its replicas, and its copy of the fully replicated Group 0) plus
// the points of its resident leaf buckets are transferred back, and the
// module is charged the unpacking work. The round is labeled
// "fault/recover/module=N" so tracing attributes recovery cost like any
// other round; the transfer volume is Θ(shard size) ≈ n/P words, the
// quantity TestRecoverModuleDeterministicAndShardSized verifies.
//
// RecoverModule is safe to call from a round's worker mid-round (the
// fault.Supervisor does exactly that): it reads only structural placement
// fields, which module programs never write, and meters through its own
// nested round. The returned cost is that round's exact metered
// contribution (Round.Metered), so it stays deterministic even when other
// workers of the interrupted round are metering concurrently.
func (t *Tree) RecoverModule(mod int) (nodes, points int64, cost pim.Stats) {
	if mod < 0 || mod >= t.mach.P() {
		panic(fmt.Sprintf("core: RecoverModule(%d) out of range [0,%d)", mod, t.mach.P()))
	}
	m32 := int32(mod)
	r := t.mach.BeginRound()
	r.Label(fmt.Sprintf("fault/recover/module=%d", mod))
	for id := range t.nodes {
		nd := &t.nodes[id]
		if nd.dead {
			continue
		}
		resident := nd.group == 0 || nd.module == m32
		if !resident {
			for _, c := range nd.copies {
				if c == m32 {
					resident = true
					break
				}
			}
		}
		if !resident {
			continue
		}
		nodes++
		r.Transfer(mod, nodeWords(t.cfg.Dim))
		if nd.leaf {
			points += int64(len(nd.pts))
			r.Transfer(mod, int64(len(nd.pts))*pointWords(t.cfg.Dim))
		}
	}
	// The host scans its arena once to assemble the shard; the module
	// unpacks what it receives.
	r.CPUWork(int64(len(t.nodes)))
	r.CPUSpan(1)
	r.ModuleWork(mod, nodes+points)
	r.Finish()
	return nodes, points, r.Metered()
}
