// Package manager implements vPIM's host-side manager (Section 3.5): the
// userspace program that tracks every UPMEM rank on the machine, arbitrates
// rank allocation between VMs (and native applications), and resets rank
// memory between tenants so no data leaks across VMs (requirement R2).
//
// Rank lifecycle (Fig. 5): unallocated ranks start NAAV (not allocated,
// available); allocation moves them to ALLO; release moves them to NANA (not
// allocated, not available) until the reset erases their content and returns
// them to NAAV. As an optimization the manager hands a NANA rank straight
// back to its previous owner without resetting, saving the ~597 ms memset.
//
// Allocation requests that find no rank do not fail immediately: they join a
// FIFO waiter queue and sleep through up to Retries poll intervals (the
// retry-with-timeout loop of Section 3.5), so a concurrent release satisfies
// the oldest waiting request. Only the time actually slept is charged on the
// virtual clock. A FaultPolicy can inject rank failures; failed ranks are
// quarantined (QUAR) rather than handed to tenants.
//
// One Manager is the host's only rank arbiter. It splits the machine's
// ranks into Options.Shards disjoint pools (one by default), each with its
// own rank table, FIFO queue and scheduler, so the one piece the paper
// leaves centralized scales out without the guest noticing:
//
//   - Placement. Allocations are routed power-of-two-choices on current
//     load (or round-robin under PlaceRR): sample two pools, send the
//     request to the one with more free ranks and fewer waiters. An
//     owner's placement is sticky — its parked snapshots, NANA reuse rank
//     and scheduling account all live in its home pool — but an owner
//     whose home is saturated is re-placed rather than parked when another
//     pool has a free rank. A request parks only when every live pool is
//     saturated.
//
//   - Rebalancing. Rebalance drains hot pools (waiters queued) into cold
//     ones (free ranks) through the preemption machinery: the hot pool
//     checkpoints its longest-running tenant, the snapshot parks on the
//     cold pool and the owner's placement follows; the tenant's next
//     operation restores there. MigrateOwned crosses pools the same way
//     when the home pool has no target, but restores eagerly.
//
//   - Failure domains. A pool dies as a unit (KillShard): its waiters are
//     re-placed onto surviving pools (bounded retry with backoff, counted
//     on cluster.failovers), its ranks report quarantined, and owners whose
//     state lived there see ErrRankFaulted on their next operation — the
//     contract of a rank death, which the backend already fails over from.
//
// With one pool every request routes to it and the counters read exactly
// as a single rank table's.
package manager

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/pim"
)

// RankState is a rank's position in the Fig. 5 lifecycle.
type RankState int

const (
	// StateNAAV: not allocated, available (clean).
	StateNAAV RankState = iota + 1
	// StateALLO: allocated to a VM or native application.
	StateALLO
	// StateNANA: not allocated, not available (dirty, awaiting reset).
	StateNANA
	// StateQUAR: quarantined after a fault (reset failure or rank death);
	// never handed to tenants until the observer revives it.
	StateQUAR
)

// String implements fmt.Stringer.
func (s RankState) String() string {
	switch s {
	case StateNAAV:
		return "NAAV"
	case StateALLO:
		return "ALLO"
	case StateNANA:
		return "NANA"
	case StateQUAR:
		return "QUAR"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Errors reported by the manager.
var (
	// ErrNoRanks is returned when every retry attempt found no allocatable
	// rank (the "request is abandoned" case of Section 3.5).
	ErrNoRanks = errors.New("manager: no rank available after retries")
	// ErrNotAllocated reports a release of a rank the manager does not
	// consider allocated.
	ErrNotAllocated = errors.New("manager: rank is not allocated")
	// ErrClosed reports an allocation against a manager that has shut down;
	// pending waiters are woken with this error.
	ErrClosed = errors.New("manager: closed")
	// ErrRankFaulted reports that a rank died while allocated (fault
	// injection); the rank has been quarantined and the owner must fail
	// over or re-attach.
	ErrRankFaulted = errors.New("manager: rank faulted")
	// ErrRankBusy reports a migration attempt against a rank with an
	// operation in flight (pinned by Acquire).
	ErrRankBusy = errors.New("manager: rank busy")
)

// Options tunes the manager. Zero values select the prototype's defaults.
type Options struct {
	// Threads is the request thread-pool size (8 in the prototype). The
	// pool bounds in-flight requests, not connections; an allocation parked
	// in the waiter queue does not hold a thread.
	Threads int
	// Retries is how many times an allocation re-polls before abandoning.
	Retries int
	// RetryTimeout is the first poll interval of a waiting allocation;
	// the requester really sleeps it, and is charged exactly what it slept.
	RetryTimeout time.Duration
	// Backoff multiplies the poll interval after each failed attempt
	// (exponential backoff). Values below 1 are treated as 1 (constant
	// interval); 0 selects the default of 2.
	Backoff float64
	// SchedPolicy selects how oversubscription is arbitrated; the default
	// SchedNone keeps the pure FIFO wait queue (see scheduler.go).
	SchedPolicy SchedPolicy
	// Quantum is the virtual runtime a tenant may accumulate on a rank
	// before it becomes preemptible under SchedSlice; 0 selects 5 ms.
	Quantum time.Duration
	// Shards splits the machine's ranks into this many disjoint contiguous
	// pools behind the placement router. Values below 1 select 1; values
	// above the rank count are capped at it (New is the one place that
	// applies this rule).
	Shards int
	// Placement selects how new owners are routed to pools (default
	// PlaceP2C).
	Placement PlacementPolicy
	// PlacementSeed seeds PlaceP2C's sampling stream; runs with equal seeds
	// and equal request interleavings place identically. 0 selects 1.
	PlacementSeed int64
	// FailoverBackoff is the pause before re-placing an allocation whose
	// pool died; the requester really sleeps it and is charged it on the
	// virtual clock. 0 selects 2 ms.
	FailoverBackoff time.Duration
}

func (o Options) withDefaults() Options {
	if o.Threads == 0 {
		o.Threads = 8
	}
	if o.Retries == 0 {
		o.Retries = 3
	}
	if o.RetryTimeout == 0 {
		o.RetryTimeout = 100 * time.Millisecond
	}
	if o.Backoff == 0 {
		o.Backoff = 2
	}
	if o.Backoff < 1 {
		o.Backoff = 1
	}
	if o.Quantum == 0 {
		o.Quantum = 5 * time.Millisecond
	}
	if o.PlacementSeed == 0 {
		o.PlacementSeed = 1
	}
	if o.FailoverBackoff == 0 {
		o.FailoverBackoff = 2 * time.Millisecond
	}
	return o
}

// failoverRetries bounds how many times an allocation interrupted by a pool
// death is re-placed onto surviving pools before the error surfaces.
const failoverRetries = 2

// FaultPolicy injects failures into the manager for robustness testing
// (chaos-style fault injection). All hooks are optional and must be safe for
// concurrent use; they are consulted with a pool lock held, so they must
// not call back into the manager.
type FaultPolicy struct {
	// FailReset reports whether erasing the given rank fails. A failed
	// reset quarantines the rank instead of returning it to the pool.
	FailReset func(rank int) bool
	// AllocStall returns extra virtual latency injected into an allocation
	// by the given owner (a slow-manager stall).
	AllocStall func(owner string) time.Duration
	// RankDead reports whether the rank's hardware has died. Dead ranks are
	// quarantined when the manager is about to hand them out, or when
	// CheckRank observes the death on an allocated rank.
	RankDead func(rank int) bool
	// FailCheckpoint reports whether checkpointing the given rank fails
	// (the snapshot copy off a rank being preempted or migrated). The rank
	// keeps running; the preemption or migration is abandoned.
	FailCheckpoint func(rank int) bool
	// FailRestore reports whether restoring a snapshot onto the given rank
	// fails. A failed restore leaves the target with an unknown mix of
	// tenant bytes, so the manager quarantines it.
	FailRestore func(rank int) bool
}

// RankManager is the allocation surface a device backend drives; the VMM
// layers above see only this.
type RankManager interface {
	// Alloc reserves one rank for owner (blocking, FIFO per pool).
	Alloc(owner string) (*pim.Rank, time.Duration, error)
	// Acquire pins owner's rank for one operation, restoring parked
	// preemption state if needed.
	Acquire(owner string, r *pim.Rank) (*pim.Rank, AcquireCost, error)
	// EndOp unpins a rank and charges elapsed runtime to its owner.
	EndOp(r *pim.Rank, elapsed time.Duration)
	// ReleaseOwned returns owner's rank (or discards its parked state).
	ReleaseOwned(owner string, r *pim.Rank) error
	// MigrateOwned consolidates owner's rank onto another rank.
	MigrateOwned(owner string, from *pim.Rank) (*pim.Rank, time.Duration, error)
	// Discard drops owner's parked snapshot without an allocation.
	Discard(owner string) bool
}

var _ RankManager = (*Manager)(nil)

// PlacementPolicy selects how the manager routes new owners to pools.
type PlacementPolicy int

const (
	// PlaceP2C samples two pools and picks the less loaded
	// (power-of-two-choices): near-optimal load spread at O(1) cost.
	PlaceP2C PlacementPolicy = iota
	// PlaceRR routes new owners round-robin over live pools, ignoring
	// load (the predictable baseline).
	PlaceRR
)

// String implements fmt.Stringer.
func (p PlacementPolicy) String() string {
	switch p {
	case PlaceP2C:
		return "p2c"
	case PlaceRR:
		return "rr"
	default:
		return fmt.Sprintf("placement(%d)", int(p))
	}
}

// ParsePlacement maps the -placement flag values to policies.
func ParsePlacement(s string) (PlacementPolicy, error) {
	switch s {
	case "p2c", "":
		return PlaceP2C, nil
	case "rr":
		return PlaceRR, nil
	default:
		return 0, fmt.Errorf("manager: unknown placement policy %q (want p2c or rr)", s)
	}
}

// Manager is the host's rank arbiter: N ≥ 1 pools behind one placement
// router. All methods are safe for concurrent use. The manager never holds
// its own lock across a blocking pool call; pools and byRank are immutable
// after construction.
type Manager struct {
	opts   Options
	pools  []*pool
	byRank map[*pim.Rank]*pool // routes rank-keyed calls
	closed atomic.Bool

	mu        sync.Mutex
	placement map[string]*pool // owner -> home pool
	rng       *rand.Rand
	rrNext    int

	reg         *obs.Registry
	cPlacements *obs.Counter
	cRebalances *obs.Counter
	cFailovers  *obs.Counter
	cDeaths     *obs.Counter
}

// New builds the manager over the machine's ranks, all NAAV, split into
// opts.Shards contiguous pools of near-equal size.
func New(machine *pim.Machine, opts Options) *Manager {
	opts = opts.withDefaults()
	ranks := machine.Ranks()
	n := max(1, min(opts.Shards, len(ranks)))
	reg := obs.NewRegistry()
	m := &Manager{
		opts:        opts,
		byRank:      make(map[*pim.Rank]*pool, len(ranks)),
		placement:   make(map[string]*pool),
		rng:         rand.New(rand.NewSource(opts.PlacementSeed)),
		reg:         reg,
		cPlacements: reg.Counter("cluster.placements"),
		cRebalances: reg.Counter("cluster.rebalances"),
		cFailovers:  reg.Counter("cluster.failovers"),
		cDeaths:     reg.Counter("cluster.shard.deaths"),
	}
	lo := 0
	for i := 0; i < n; i++ {
		size := len(ranks) / n
		if i < len(ranks)%n {
			size++
		}
		slice := ranks[lo : lo+size]
		lo += size
		p := newPool(i, slice, machine.Model().ManagerAllocLatency, opts,
			reg.Counter(fmt.Sprintf("cluster.shard%d.placements", i)))
		for _, r := range slice {
			m.byRank[r] = p
		}
		m.pools = append(m.pools, p)
	}
	return m
}

// Metrics snapshots the manager's counters (the METRICS socket verb). With
// one pool these are the pool's manager.* counters. With more, the routing
// counters (cluster.*) join every pool's counters tagged "#shard<i>", so
// obs.Aggregate recovers the totals; a dead pool keeps reporting its final
// values, preserving monotonicity.
func (m *Manager) Metrics() map[string]int64 {
	if len(m.pools) == 1 {
		return m.pools[0].reg.Snapshot()
	}
	out := m.reg.Snapshot()
	for _, p := range m.pools {
		tag := fmt.Sprintf("#shard%d", p.index)
		for k, v := range p.reg.Snapshot() {
			out[k+tag] = v
		}
	}
	return out
}

// SetFaultPolicy installs (or, with nil, removes) the fault-injection hooks
// on every pool.
func (m *Manager) SetFaultPolicy(p *FaultPolicy) {
	for _, pl := range m.pools {
		pl.mu.Lock()
		pl.fault = p
		pl.mu.Unlock()
	}
}

// live lists the pools still in service.
func (m *Manager) live() []*pool {
	out := make([]*pool, 0, len(m.pools))
	for _, p := range m.pools {
		if !p.dead.Load() {
			out = append(out, p)
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Placement.

// poolLoad is one pool's instantaneous routing signal.
type poolLoad struct {
	p       *pool
	free    int // usable NAAV+NANA ranks
	allo    int
	waiters int
}

// less orders loads: more free capacity first, then fewer waiters, then
// fewer residents, then lower index (a deterministic total order).
func (a poolLoad) less(b poolLoad) bool {
	if a.free != b.free {
		return a.free > b.free
	}
	if a.waiters != b.waiters {
		return a.waiters < b.waiters
	}
	if a.allo != b.allo {
		return a.allo < b.allo
	}
	return a.p.index < b.p.index
}

// loads snapshots every live pool's routing signal, in pool order.
func (m *Manager) loads() []poolLoad {
	var out []poolLoad
	for _, p := range m.live() {
		free, allo, waiters := p.loadSnapshot()
		out = append(out, poolLoad{p: p, free: free, allo: allo, waiters: waiters})
	}
	return out
}

// pickLocked chooses a pool for a fresh placement. Candidates are live
// pools with free capacity; only when none has a free rank does every live
// pool qualify (the request then parks, or is served by the pool's
// preemptive scheduler). Returns nil when no live pool exists.
func (m *Manager) pickLocked() *pool {
	loads := m.loads()
	if len(loads) == 0 {
		return nil
	}
	var cands []poolLoad
	for _, l := range loads {
		if l.free > 0 {
			cands = append(cands, l)
		}
	}
	if len(cands) == 0 {
		cands = loads
	}
	if m.opts.Placement == PlaceRR {
		pick := cands[m.rrNext%len(cands)]
		m.rrNext++
		return pick.p
	}
	if len(cands) == 1 {
		return cands[0].p
	}
	// Power of two choices: sample two distinct candidates, keep the less
	// loaded one.
	i := m.rng.Intn(len(cands))
	j := m.rng.Intn(len(cands) - 1)
	if j >= i {
		j++
	}
	if cands[j].less(cands[i]) {
		return cands[j].p
	}
	return cands[i].p
}

// place resolves owner's target pool for an allocation, re-placing when
// the home pool is dead (a failover) or saturated while capacity exists
// elsewhere. The returned pool may still park the request — but only if
// every live pool was saturated at decision time.
func (m *Manager) place(owner string) (*pool, error) {
	if m.closed.Load() {
		return nil, ErrClosed
	}
	if len(m.pools) == 1 {
		if p, _ := m.home(owner); p != nil {
			return p, nil
		}
		return nil, fmt.Errorf("%w: no live shard", ErrNoRanks)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if p, ok := m.placement[owner]; ok {
		if p.dead.Load() {
			// The owner's state died with its pool; route the fresh
			// allocation elsewhere.
			delete(m.placement, owner)
			m.cFailovers.Inc()
		} else {
			free, _, _ := p.loadSnapshot()
			if free > 0 || p.hasParked(owner) || m.coldest(p) == nil {
				// Home has room or holds the owner's state, or nowhere
				// else has a free rank: the home queue is the right place
				// to wait.
				return p, nil
			}
			delete(m.placement, owner)
		}
	}
	p := m.pickLocked()
	if p == nil {
		return nil, fmt.Errorf("%w: no live shard", ErrNoRanks)
	}
	m.placement[owner] = p
	m.cPlacements.Inc()
	p.placed.Inc()
	return p, nil
}

// home returns owner's current home pool, nil when unplaced. Reports
// dead=true (and forgets the placement) when the home pool was killed. The
// only pool of a one-pool manager is every owner's home, so no routing
// state is kept for it.
func (m *Manager) home(owner string) (p *pool, dead bool) {
	if len(m.pools) == 1 {
		if p = m.pools[0]; p.dead.Load() {
			return nil, true
		}
		return p, false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	p, ok := m.placement[owner]
	if !ok {
		return nil, false
	}
	if p.dead.Load() {
		delete(m.placement, owner)
		m.cFailovers.Inc()
		return nil, true
	}
	return p, false
}

// rehome moves owner's placement to p, counting the placement.
func (m *Manager) rehome(owner string, p *pool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.placement[owner] == p {
		return
	}
	m.placement[owner] = p
	m.cPlacements.Inc()
	p.placed.Inc()
}

// coldest returns the best live pool other than from with a free rank (nil
// when none). Deterministic: the poolLoad total order breaks ties.
func (m *Manager) coldest(from *pool) *pool {
	var best *poolLoad
	for _, l := range m.loads() {
		l := l
		if l.p == from || l.free == 0 {
			continue
		}
		if best == nil || l.less(*best) {
			best = &l
		}
	}
	if best == nil {
		return nil
	}
	return best.p
}

// ---------------------------------------------------------------------------
// RankManager surface.

// Alloc reserves one rank for owner and reports the virtual latency of the
// allocation round trip: the manager's measured 36 ms when a NAAV (or
// reusable NANA) rank exists, extended by the reset time when a foreign NANA
// rank must be erased first.
//
// When every rank of the owner's pool is busy the request joins that pool's
// FIFO waiter queue and really blocks: it sleeps through up to Retries poll
// intervals (RetryTimeout, growing by Backoff after each attempt) waiting
// for a concurrent release, and is abandoned with ErrNoRanks only after the
// full budget. Under SchedSlice a budget that runs out while another
// tenant's operation is in flight is renewed, up to Retries times: that
// operation's end is a preemption point for the queue. The returned latency
// charges exactly the poll intervals the requester slept — the manager has
// no timeline of its own, so the requesting VM charges it.
func (m *Manager) Alloc(owner string) (*pim.Rank, time.Duration, error) {
	rank, wait, ck, err := m.alloc(owner, allocHooks{})
	return rank, wait + ck, err
}

// alloc is the blocking core, shared with the wire server (which threads
// park/unpark hooks through). It reports the absorbed checkpoint debt apart
// from the wait. A pool death mid-wait surfaces as ErrClosed from the pool
// while the manager itself is open; the request then fails over: bounded
// re-placement onto surviving pools, each after a real (and charged)
// backoff sleep.
func (m *Manager) alloc(owner string, hooks allocHooks) (*pim.Rank, time.Duration, time.Duration, error) {
	var waited time.Duration
	for attempt := 0; ; attempt++ {
		p, err := m.place(owner)
		if err != nil {
			return nil, waited, 0, err
		}
		rank, wait, ck, aerr := p.alloc(owner, hooks)
		waited += wait
		if aerr == nil {
			return rank, waited, ck, nil
		}
		if !errors.Is(aerr, ErrClosed) || m.closed.Load() {
			return nil, waited, ck, aerr
		}
		// The pool closed under a live manager: it died. Mark it (KillShard
		// may race; marking is idempotent), forget the placement and retry
		// elsewhere.
		m.noteDead(p)
		m.forget(owner, p)
		m.cFailovers.Inc()
		if attempt >= failoverRetries {
			return nil, waited, 0, fmt.Errorf("manager: shard %d died; failover budget exhausted: %w", p.index, ErrNoRanks)
		}
		time.Sleep(m.opts.FailoverBackoff)
		waited += m.opts.FailoverBackoff
	}
}

// noteDead marks a pool dead after observing it closed.
func (m *Manager) noteDead(p *pool) {
	if p.dead.CompareAndSwap(false, true) {
		m.cDeaths.Inc()
	}
}

// forget drops owner's placement if it still points at p.
func (m *Manager) forget(owner string, p *pool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.placement[owner] == p {
		delete(m.placement, owner)
	}
}

// Acquire pins owner's rank for one operation (see pool.Acquire), in the
// owner's home pool. An owner whose home pool died lost its rank and parked
// state with it: ErrRankFaulted, the contract of a rank death, so callers
// fail over identically.
func (m *Manager) Acquire(owner string, r *pim.Rank) (*pim.Rank, AcquireCost, error) {
	if m.closed.Load() {
		return nil, AcquireCost{}, ErrClosed
	}
	p, dead := m.home(owner)
	if p == nil {
		if dead {
			return nil, AcquireCost{}, fmt.Errorf("%w: home shard died", ErrRankFaulted)
		}
		return nil, AcquireCost{}, ErrRankFaulted
	}
	return p.Acquire(owner, r)
}

// EndOp ends an operation pinned by Acquire (see pool.EndOp). Ranks the
// manager does not own (simulated ones) or that sit in a dead pool are
// ignored.
func (m *Manager) EndOp(r *pim.Rank, elapsed time.Duration) {
	if p := m.byRank[r]; p != nil && !p.dead.Load() {
		p.EndOp(r, elapsed)
	}
}

// ReleaseOwned returns owner's rank (see pool.ReleaseOwned). A preempted
// owner's state is its parked snapshot in the home pool, which is discarded
// while r is left untouched. Otherwise r is released in the pool that holds
// it: an owner re-placed while its home was full holds ranks in several
// pools. Releasing state that died with its pool trivially succeeds — the
// rank is gone.
func (m *Manager) ReleaseOwned(owner string, r *pim.Rank) error {
	home, dead := m.home(owner)
	p := m.byRank[r]
	if home != nil && home != p && home.ReleaseOwned(owner, nil) == nil {
		return nil // a parked snapshot was the owner's state
	}
	switch {
	case p == nil && dead:
		return nil
	case p == nil:
		return fmt.Errorf("%w: unknown rank (owner %s)", ErrNotAllocated, owner)
	case p.dead.Load():
		return nil
	}
	return p.ReleaseOwned(owner, r)
}

// Discard drops owner's parked snapshot in its home pool (see
// pool.Discard).
func (m *Manager) Discard(owner string) bool {
	p, _ := m.home(owner)
	return p != nil && p.Discard(owner)
}

// MigrateOwned consolidates owner's rank: first within its home pool (see
// pool.MigrateOwned), then — when the home pool has no target — across
// pools: the home pool checkpoints and frees the rank (charged to the
// caller, like any migration), the snapshot parks on the least-loaded live
// pool with a free rank, the owner's placement follows, and the snapshot is
// restored there eagerly. A failed cross-pool restore quarantines the
// target and leaves the snapshot parked on the new home, so the tenant's
// next Acquire resumes it — the move degrades to a rebalance instead of
// losing bytes.
func (m *Manager) MigrateOwned(owner string, from *pim.Rank) (*pim.Rank, time.Duration, error) {
	p, dead := m.home(owner)
	if p == nil {
		if dead {
			return nil, 0, fmt.Errorf("%w: home shard died (owner %s)", ErrNotAllocated, owner)
		}
		return nil, 0, fmt.Errorf("%w: owner %s is not placed", ErrNotAllocated, owner)
	}
	dst, dur, err := p.MigrateOwned(owner, from)
	if err == nil || !errors.Is(err, ErrNoRanks) {
		return dst, dur, err
	}
	// Home pool full: pick the target before touching the source, so a
	// doomed move never evicts.
	target := m.coldest(p)
	if target == nil {
		return nil, dur, err // the original "no migration target"
	}
	snap, ckDur, eerr := p.evictOwned(owner, from)
	if eerr != nil {
		return nil, dur, eerr
	}
	target.park(owner, snap)
	m.rehome(owner, target)
	rank, cost, rerr := target.resumeParked(owner, 1, false)
	total := dur + ckDur + cost.Total()
	if rerr != nil {
		// The snapshot stays parked on the new home pool; the tenant
		// resumes through Acquire. The work actually performed is owed.
		return nil, total, fmt.Errorf("cross-shard restore on shard %d: %w", target.index, rerr)
	}
	m.cRebalances.Inc()
	return rank, total, nil
}

// ---------------------------------------------------------------------------
// Rebalancing and failure domains.

// Rebalance drains hot pools into cold ones: while some live pool has
// waiters queued and another has a free rank and an empty queue, the hot
// pool checkpoints its longest-running unpinned tenant (exactly a scheduler
// preemption), the snapshot parks on the cold pool, and the owner's
// placement moves with it. The freed rank immediately serves the hot pool's
// queue; the moved tenant resumes on the cold pool through its next
// Acquire. Returns how many tenants moved. Safe to call from a background
// tick.
func (m *Manager) Rebalance() int {
	moved := 0
	for {
		hot, cold := m.rebalancePair()
		if hot == nil {
			return moved
		}
		owner, snap, ok := hot.evictLongest()
		if !ok {
			// Every resident on the hot pool is pinned, native or
			// mid-resume; nothing to drain this round.
			return moved
		}
		cold.park(owner, snap)
		m.rehome(owner, cold)
		m.cRebalances.Inc()
		moved++
	}
}

// rebalancePair picks the hottest pool with waiters and the coldest with
// free capacity and an empty queue (nil, nil when no productive pair
// exists).
func (m *Manager) rebalancePair() (hot, cold *pool) {
	var hotL, coldL *poolLoad
	loads := m.loads()
	for i := range loads {
		l := &loads[i]
		if l.waiters > 0 && (hotL == nil || l.waiters > hotL.waiters) {
			hotL = l
		}
		if l.free > 0 && l.waiters == 0 && (coldL == nil || l.less(*coldL)) {
			coldL = l
		}
	}
	if hotL == nil || coldL == nil {
		return nil, nil
	}
	return hotL.p, coldL.p
}

// KillShard takes pool i out of service as one failure domain: the pool
// closes (its waiters wake with ErrClosed and are re-placed on surviving
// pools), its ranks report quarantined, and owners whose state lived there
// observe ErrRankFaulted on their next operation. Idempotent; killing the
// last live pool is allowed — the manager then behaves like a fully
// quarantined machine.
func (m *Manager) KillShard(i int) error {
	if i < 0 || i >= len(m.pools) {
		return fmt.Errorf("manager: no shard %d", i)
	}
	p := m.pools[i]
	if !p.dead.CompareAndSwap(false, true) {
		return nil
	}
	m.cDeaths.Inc()
	// Closing wakes the pool's waiters; they re-enter through the failover
	// path, so no manager lock may be held here.
	p.Close()
	return nil
}

// Close shuts the allocation path down: pending waiters are woken with
// ErrClosed and future allocations fail fast. Idempotent. The daemon calls
// this before stopping its server so blocked requests unwind promptly.
func (m *Manager) Close() {
	if !m.closed.CompareAndSwap(false, true) {
		return
	}
	for _, p := range m.pools {
		p.Close()
	}
}

// ---------------------------------------------------------------------------
// Observer and native surfaces.

// ProcessResets performs the observer thread's background work: erase every
// NANA rank and mark it NAAV. It reports the virtual time the resets took
// (the ~597 ms/rank memset of Section 4.2); the observer works through the
// ranks sequentially, so the durations add. Ranks whose reset fails (fault
// injection) are quarantined instead.
func (m *Manager) ProcessResets() time.Duration {
	var total time.Duration
	for _, p := range m.live() {
		total += p.ProcessResets()
	}
	return total
}

// RetryQuarantined re-tests every quarantined rank against the fault policy:
// a rank that is no longer dead and whose reset now succeeds returns to NAAV
// (graceful recovery). It reports how many ranks were revived. The observer
// calls this on every poll. Ranks of a dead pool stay out of service.
func (m *Manager) RetryQuarantined() int {
	n := 0
	for _, p := range m.live() {
		n += p.RetryQuarantined()
	}
	return n
}

// CheckRank verifies an allocated rank against the fault policy: a rank that
// died while allocated is quarantined (ALLO -> QUAR) and ErrRankFaulted is
// returned so the owner can fail over or re-attach. Ranks the manager does
// not own pass.
func (m *Manager) CheckRank(r *pim.Rank) error {
	p := m.byRank[r]
	switch {
	case p == nil:
		return nil
	case p.dead.Load():
		return ErrRankFaulted
	}
	return p.CheckRank(r)
}

// AcquireNative reserves ranks covering nrDPUs for a host-native
// application, taking usable ranks in machine order across live pools.
// Native applications bypass the manager's socket protocol (the observer
// merely sees their usage), so no allocation latency applies and no queue
// is consulted. A shortfall rolls the whole acquisition back.
func (m *Manager) AcquireNative(nrDPUs int) ([]*pim.Rank, error) {
	var picked []*pim.Rank
	covered := 0
	live := m.live()
	for _, p := range live {
		ranks, n := p.takeNative(nrDPUs - covered)
		picked = append(picked, ranks...)
		if covered += n; covered >= nrDPUs {
			return picked, nil
		}
	}
	for _, p := range live {
		p.untakeNative(picked)
	}
	return nil, fmt.Errorf("%w: want %d DPUs", ErrNoRanks, nrDPUs)
}

// ReleaseNative returns a native application's rank (observed via sysfs,
// like a VM release).
func (m *Manager) ReleaseNative(r *pim.Rank) {
	// Errors here mean double release; native.RankPool has no error path
	// and the state machine is already consistent, so drop it.
	_ = m.Release(r)
}

// Release returns a rank by pointer. In the real system the VM does not
// call the manager: a dedicated observer thread notices the release through
// the rank's sysfs status file; this method is that observation. The rank
// becomes NANA until ProcessResets (the observer's background erase) or a
// same-owner reallocation — unless a request is waiting, in which case the
// head of the FIFO queue is served immediately. Releasing a quarantined
// rank, or one in a dead pool, is a no-op: the rank is already out of
// service. Tenants release through ReleaseOwned, which checks ownership.
func (m *Manager) Release(r *pim.Rank) error {
	p := m.byRank[r]
	switch {
	case p == nil:
		return fmt.Errorf("%w: unknown rank", ErrNotAllocated)
	case p.dead.Load():
		return nil
	}
	return p.Release(r)
}

// ---------------------------------------------------------------------------
// Introspection.

// table concatenates the pool tables in machine order.
func (m *Manager) table() []entry {
	var out []entry
	for _, p := range m.pools {
		out = append(out, p.table()...)
	}
	return out
}

// RankByIndex looks a rank up by its machine index.
func (m *Manager) RankByIndex(idx int) (*pim.Rank, bool) {
	for r := range m.byRank {
		if r.Index() == idx {
			return r, true
		}
	}
	return nil, false
}

// States snapshots the rank table for tests and the admin CLI. Ranks of a
// dead pool report QUAR: the whole failure domain is out of service.
func (m *Manager) States() []RankState {
	t := m.table()
	out := make([]RankState, len(t))
	for i := range t {
		out[i] = t[i].state
	}
	return out
}

// Owners snapshots the owner column of the rank table.
func (m *Manager) Owners() []string {
	t := m.table()
	out := make([]string, len(t))
	for i := range t {
		out[i] = t[i].owner
	}
	return out
}

// Quarantined lists the indexes of quarantined ranks, every rank of a dead
// pool included.
func (m *Manager) Quarantined() []int {
	var out []int
	for _, e := range m.table() {
		if e.state == StateQUAR {
			out = append(out, e.rank.Index())
		}
	}
	return out
}

// Waiters reports how many allocation requests are parked in the queues of
// live pools.
func (m *Manager) Waiters() int {
	n := 0
	for _, p := range m.live() {
		n += p.Waiters()
	}
	return n
}

// Parked lists owners whose checkpointed state is awaiting a rank in a live
// pool, sorted.
func (m *Manager) Parked() []string {
	var out []string
	for _, p := range m.live() {
		out = append(out, p.Parked()...)
	}
	sort.Strings(out)
	return out
}

// sum adds one counter across every pool, dead ones included (their values
// are frozen, not lost).
func (m *Manager) sum(c func(*pool) *obs.Counter) int64 {
	var n int64
	for _, p := range m.pools {
		n += c(p).Load()
	}
	return n
}

// Allocations reports how many allocations have been served.
func (m *Manager) Allocations() int64 { return m.sum(func(p *pool) *obs.Counter { return p.cGranted }) }

// Resets reports how many rank resets have been performed.
func (m *Manager) Resets() int64 { return m.sum(func(p *pool) *obs.Counter { return p.cResets }) }

// Faults reports how many rank faults (failed resets, rank deaths) the
// manager has absorbed by quarantining.
func (m *Manager) Faults() int64 { return m.sum(func(p *pool) *obs.Counter { return p.cQuarantines }) }

// Preemptions reports how many tenants have been checkpointed off their
// rank, by the scheduler or a rebalance.
func (m *Manager) Preemptions() int64 { return m.sum(func(p *pool) *obs.Counter { return p.cPreempt }) }

// SchedRestores reports how many parked tenants have been restored onto a
// rank.
func (m *Manager) SchedRestores() int64 {
	return m.sum(func(p *pool) *obs.Counter { return p.cRestores })
}

// Migrations reports how many rank migrations have completed. Migrations
// deliberately do not count as allocations: Allocations() and the
// manager.granted metric track admission, which a consolidation move does
// not change.
func (m *Manager) Migrations() int64 {
	return m.sum(func(p *pool) *obs.Counter { return p.cMigrations })
}

// Sched snapshots per-owner residency and preemption statistics (the
// `sched` socket verb), sorted by owner. An owner rebalanced between pools
// has accounts in both; its rows merge by summing the counters and keeping
// the live residency.
func (m *Manager) Sched() []OwnerSched {
	byOwner := make(map[string]*OwnerSched)
	for _, p := range m.live() {
		for _, row := range p.Sched() {
			row := row
			cur := byOwner[row.Owner]
			if cur == nil {
				byOwner[row.Owner] = &row
				continue
			}
			cur.RuntimeNS += row.RuntimeNS
			cur.SliceNS += row.SliceNS
			cur.Preemptions += row.Preemptions
			cur.Restores += row.Restores
			cur.Parked = cur.Parked || row.Parked
			if cur.Rank < 0 {
				cur.Rank = row.Rank
			}
		}
	}
	out := make([]OwnerSched, 0, len(byOwner))
	for _, row := range byOwner {
		out = append(out, *row)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Owner < out[j].Owner })
	return out
}

// ShardInfo is one pool's row in the `cluster` wire verb.
type ShardInfo struct {
	Index int  `json:"index"`
	Dead  bool `json:"dead"`
	// Ranks is the pool size; Free/Resident/Quarantined partition the
	// table (Resident = ALLO ranks, the pool's residency).
	Ranks       int   `json:"ranks"`
	Free        int   `json:"free"`
	Resident    int   `json:"resident"`
	Quarantined int   `json:"quarantined"`
	Waiters     int   `json:"waiters"`
	Parked      int   `json:"parked"`
	Granted     int64 `json:"granted"`
	// Placements counts owners routed to this pool. A one-pool manager
	// routes nothing, so its placement counters stay 0.
	Placements int64 `json:"placements"`
}

// ClusterStats is the `cluster` wire verb payload: the pool topology and
// routing counters.
type ClusterStats struct {
	Shards      []ShardInfo `json:"shards"`
	Placements  int64       `json:"placements"`
	Rebalances  int64       `json:"rebalances"`
	Failovers   int64       `json:"failovers"`
	ShardDeaths int64       `json:"shardDeaths"`
}

// Stats snapshots the pool topology for the admin surface.
func (m *Manager) Stats() ClusterStats {
	st := ClusterStats{
		Placements:  m.cPlacements.Load(),
		Rebalances:  m.cRebalances.Load(),
		Failovers:   m.cFailovers.Load(),
		ShardDeaths: m.cDeaths.Load(),
	}
	for _, p := range m.pools {
		info := ShardInfo{
			Index:      p.index,
			Dead:       p.dead.Load(),
			Granted:    p.cGranted.Load(),
			Placements: p.placed.Load(),
		}
		t := p.table()
		info.Ranks = len(t)
		for _, e := range t {
			switch e.state {
			case StateALLO:
				info.Resident++
			case StateQUAR:
				info.Quarantined++
			default:
				info.Free++
			}
		}
		if !info.Dead {
			info.Waiters = p.Waiters()
			info.Parked = len(p.Parked())
		}
		st.Shards = append(st.Shards, info)
	}
	return st
}
