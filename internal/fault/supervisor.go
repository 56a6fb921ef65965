package fault

import (
	"sync"
	"time"

	"pimkd/internal/pim"
)

// Rebuilder restores one module's shard from host-side authoritative state.
// core.Tree implements it (RecoverModule): the host re-ships every node and
// leaf point resident on the module in a metered round labeled
// "fault/recover/module=N", returning the round's exact metered cost.
// Implementations must be safe to call from a round's worker mid-round
// (reads of structural state only) and to call concurrently for different
// modules, and must report cost from their own rounds (e.g. Round.Metered)
// rather than by bracketing Machine.Stats, which would absorb concurrent
// metering by the interrupted round's surviving modules.
type Rebuilder interface {
	RecoverModule(mod int) (nodes, points int64, cost pim.Stats)
}

// SupervisorConfig parameterizes the recovery protocol. The zero value is
// usable.
type SupervisorConfig struct {
	// MaxRetries is how many times one module program may be retried within
	// a single round before the supervisor gives up and the fault escalates
	// as a typed panic. Default 4.
	MaxRetries int
	// BaseBackoff is the delay before the first retry; it doubles per
	// attempt, capped at MaxBackoff. Defaults 200µs / 10ms. Backoff is wall
	// time only and never metered. It sleeps on the round's worker for the
	// faulted module, which started a spare worker for the round's other
	// modules before calling the handler.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// OnEvent, when non-nil, observes every recovery event (from the
	// worker executing the faulted module; keep it cheap and do not submit
	// machine work from it).
	OnEvent func(Event)
}

func (c SupervisorConfig) withDefaults() SupervisorConfig {
	if c.MaxRetries <= 0 {
		c.MaxRetries = 4
	}
	if c.BaseBackoff <= 0 {
		c.BaseBackoff = 200 * time.Microsecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 10 * time.Millisecond
	}
	return c
}

// Event records one handled fault.
type Event struct {
	Round   int64  `json:"round"`
	Module  int    `json:"module"`
	Kind    string `json:"kind"`
	Attempt int    `json:"attempt"`
	// Recovered is false when the supervisor gave up (retries exhausted).
	Recovered bool `json:"recovered"`
	// RebuiltNodes/RebuiltPoints count what the rebuild re-shipped (zero
	// for stalls, which lose no state).
	RebuiltNodes  int64 `json:"rebuilt_nodes,omitempty"`
	RebuiltPoints int64 `json:"rebuilt_points,omitempty"`
	// Cost is the rebuild round's exact metered contribution to the
	// machine (Round.Metered).
	Cost pim.Stats `json:"cost"`
	// Backoff is the wall-clock delay applied before the retry.
	Backoff time.Duration `json:"backoff_ns"`
}

// Stats aggregates a supervisor's lifetime counters.
type Stats struct {
	Crashes    int64 `json:"crashes"`
	Stalls     int64 `json:"stalls"`
	Recoveries int64 `json:"recoveries"`
	GaveUp     int64 `json:"gave_up"`
	// RebuiltNodes/RebuiltPoints total what recovery re-shipped.
	RebuiltNodes  int64 `json:"rebuilt_nodes"`
	RebuiltPoints int64 `json:"rebuilt_points"`
	// RecoveryCost is the summed pim.Stats delta of every rebuild — the
	// metered price of fault tolerance.
	RecoveryCost pim.Stats `json:"recovery_cost"`

	// Process-level recovery (the persist layer's story, one level above
	// module rebuilds): how many times this process was restored from
	// snapshot + WAL, what replay re-applied, and what it cost. Populated
	// by RecordProcessRecovery at startup.
	ProcessRecoveries int64     `json:"process_recoveries"`
	ReplayedRecords   int64     `json:"replayed_records"`
	ReplayedItems     int64     `json:"replayed_items"`
	ReplayCost        pim.Stats `json:"replay_cost"`

	// Peer rebuild (the replication layer's story, one level above the
	// durability layer): how many convergence runs pulled this shard's
	// cells from replica peers, what arrived over the wire, the exact
	// metered cost of the restore rounds (labeled fault/rebuild/cell=N),
	// and the wall time spent converging. Populated by RecordPeerRebuild.
	PeerRebuilds  int64         `json:"peer_rebuilds"`
	RebuiltCells  int64         `json:"rebuilt_cells"`
	PulledItems   int64         `json:"pulled_items"`
	RebuildCost   pim.Stats     `json:"rebuild_cost"`
	RebuildTimeNS time.Duration `json:"rebuild_time_ns"`

	// Online rebalance (the elasticity layer's story, beside the fault
	// rungs): how many migration adopts this shard applied for the
	// router-driven rebalancer, what they carried, their exact metered cost
	// (rounds labeled shard/migrate/cell=N), and the wall time spent
	// applying. Populated by RecordMigration.
	MigrateAdopts int64         `json:"migrate_adopts"`
	MigratedItems int64         `json:"migrated_items"`
	MigrateCost   pim.Stats     `json:"migrate_cost"`
	MigrateTimeNS time.Duration `json:"migrate_time_ns"`
}

// Supervisor implements detect → rebuild → retry on top of the machine's
// fault containment. Register it with Attach; wrap operations whose faults
// should surface as errors (not panics) with Do.
type Supervisor struct {
	mach *pim.Machine
	reb  Rebuilder
	cfg  SupervisorConfig

	mu     sync.Mutex
	stats  Stats
	events []Event
}

// NewSupervisor creates a supervisor for mach that rebuilds shards through
// reb. Call Attach to start handling faults.
func NewSupervisor(cfg SupervisorConfig, mach *pim.Machine, reb Rebuilder) *Supervisor {
	return &Supervisor{mach: mach, reb: reb, cfg: cfg.withDefaults()}
}

// Attach registers the supervisor as the machine's recovery handler.
func (s *Supervisor) Attach() { s.mach.SetRecoveryHandler(s) }

// Detach deregisters the supervisor.
func (s *Supervisor) Detach() { s.mach.SetRecoveryHandler(nil) }

// HandleModuleFault implements pim.RecoveryHandler. Crashes rebuild the
// module's shard (metered); stalls only back off. Returns true to retry
// the faulted module program.
func (s *Supervisor) HandleModuleFault(f *pim.ModuleFault) bool {
	ev := Event{Round: f.Round, Module: f.Module, Kind: f.Kind.String(), Attempt: f.Attempt}
	if f.Attempt >= s.cfg.MaxRetries {
		s.record(f, ev)
		return false
	}
	ev.Recovered = true

	ev.Backoff = s.cfg.BaseBackoff << uint(f.Attempt)
	if ev.Backoff > s.cfg.MaxBackoff {
		ev.Backoff = s.cfg.MaxBackoff
	}
	time.Sleep(ev.Backoff)

	if f.Kind == pim.FaultCrash && s.reb != nil {
		ev.RebuiltNodes, ev.RebuiltPoints, ev.Cost = s.reb.RecoverModule(f.Module)
	}
	s.record(f, ev)
	return true
}

func (s *Supervisor) record(f *pim.ModuleFault, ev Event) {
	s.mu.Lock()
	switch f.Kind {
	case pim.FaultCrash:
		s.stats.Crashes++
	case pim.FaultStall:
		s.stats.Stalls++
	}
	if ev.Recovered {
		s.stats.Recoveries++
		s.stats.RebuiltNodes += ev.RebuiltNodes
		s.stats.RebuiltPoints += ev.RebuiltPoints
		s.stats.RecoveryCost = s.stats.RecoveryCost.Add(ev.Cost)
	} else {
		s.stats.GaveUp++
	}
	s.events = append(s.events, ev)
	s.mu.Unlock()
	if s.cfg.OnEvent != nil {
		s.cfg.OnEvent(ev)
	}
}

// RecordProcessRecovery folds a completed process-level recovery (a
// persist.Open that restored state from snapshot + write-ahead log) into the
// supervisor's stats, completing the fault story across both levels: module
// crashes are rebuilt live in Θ(n/P), process crashes are rebuilt at startup
// from the durability layer, and both report their exact metered cost here.
// The arguments mirror persist.RecoveryStats (records/items replayed and the
// machine-metered replay cost); fault does not import persist so either can
// be used without the other.
func (s *Supervisor) RecordProcessRecovery(records, items int64, cost pim.Stats) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.ProcessRecoveries++
	s.stats.ReplayedRecords += records
	s.stats.ReplayedItems += items
	s.stats.ReplayCost = s.stats.ReplayCost.Add(cost)
}

// RecordPeerRebuild folds a completed peer-rebuild convergence run (a
// replicated shard pulling its cells' contents from healthy replicas) into
// the supervisor's stats — the third rung of the fault story: module
// crashes rebuild live from host state, process crashes replay the local
// durability layer, and a lost data dir streams back from the cell's peer
// replicas. cells and items are what the run pulled over the wire, cost is
// the exact metered price of the restore rounds (each labeled
// fault/rebuild/cell=N), took the run's wall time. fault does not import
// serve; the server wires serve.RebuildConfig.OnRebuilt here.
func (s *Supervisor) RecordPeerRebuild(cells, items int64, cost pim.Stats, took time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.PeerRebuilds++
	s.stats.RebuiltCells += cells
	s.stats.PulledItems += items
	s.stats.RebuildCost = s.stats.RebuildCost.Add(cost)
	s.stats.RebuildTimeNS += took
}

// RecordMigration folds one applied migration adopt (the shard accepting a
// staged cell region from the router's online rebalancer, or purging one
// it no longer hosts) into the supervisor's stats. items is the staged cut
// size the adopt carried, cost the exact metered price of the apply round
// (labeled shard/migrate/cell=N), took its wall time. fault does not
// import serve; the server wires the shard listener's migration observer
// here.
func (s *Supervisor) RecordMigration(items int64, cost pim.Stats, took time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.MigrateAdopts++
	s.stats.MigratedItems += items
	s.stats.MigrateCost = s.stats.MigrateCost.Add(cost)
	s.stats.MigrateTimeNS += took
}

// Stats returns the supervisor's aggregate counters.
func (s *Supervisor) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Events returns a copy of the recovery event log, in handling order.
func (s *Supervisor) Events() []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Event(nil), s.events...)
}

// Do runs op with fault containment: a typed fault panic (an escalated
// *pim.ModuleFault or *pim.RoundTimeout — recovery exhausted, a real module
// panic, or a persistent send failure) is returned as an error instead of
// unwinding further. Other panics propagate unchanged. Note that an
// operation aborted mid-flight may leave its round unfinished, so a
// tracer's totals can undercount the machine meters after a Do error.
func (s *Supervisor) Do(op func() error) (err error) {
	defer func() {
		switch p := recover().(type) {
		case nil:
		case *pim.ModuleFault:
			err = p
		case *pim.RoundTimeout:
			err = p
		default:
			panic(p)
		}
	}()
	return op()
}
