package manager

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/pim"
)

type entry struct {
	rank      *pim.Rank
	state     RankState
	owner     string
	prevOwner string
	// pins counts operations in flight on an ALLO rank (Acquire/EndOp);
	// the scheduler never preempts a pinned rank.
	pins int
	// debt is checkpoint work performed to free this rank that nobody has
	// been charged for yet; the next grantee (or the observer's reset
	// pass) absorbs it into its virtual clock.
	debt time.Duration
}

// waiter is one queued allocation request. The grant is delivered through
// ready (buffered, sent exactly once, always under the pool lock).
type waiter struct {
	owner string
	ready chan grant
}

// grant is the outcome handed to a waiter: a rank plus the extra virtual
// cost its preparation incurred (a reset, and/or the checkpoint debt of a
// preempted previous tenant), or a terminal error.
type grant struct {
	rank  *pim.Rank
	extra time.Duration
	ck    time.Duration // absorbed checkpoint debt (reported separately)
	err   error
}

// allocHooks observes a blocking allocation's park/unpark transitions so the
// server can hand its request-pool slot back while the allocation waits.
// Both hooks are called without the pool lock held.
type allocHooks struct {
	park   func()
	unpark func()
}

// pool is one rank table plus its allocation policy: the Fig. 5 lifecycle,
// the FIFO waiter queue and the time-slicing scheduler over a disjoint slice
// of the machine's ranks. The Manager routes every request to exactly one
// pool. All methods are safe for concurrent use.
type pool struct {
	index        int
	opts         Options
	allocLatency time.Duration
	// dead marks a pool taken out of service as one failure domain
	// (KillShard). It is written once and read on every routing decision,
	// so it is atomic rather than lock guarded.
	dead atomic.Bool
	// placed counts allocations routed here (Manager registry).
	placed *obs.Counter

	mu      sync.Mutex
	entries []entry
	rrNext  int
	waiters []*waiter
	closed  bool
	fault   *FaultPolicy

	// Time-slicing scheduler state (scheduler.go): parked snapshots of
	// preempted tenants keyed by owner, per-owner quantum accounts, and the
	// aging level of the current head waiter.
	parked       map[string]*pim.Snapshot
	stats        map[string]*ownerStat
	schedStarved int

	// Registry-backed counters; Manager.Metrics snapshots reg.
	reg          *obs.Registry
	cGranted     *obs.Counter
	cParked      *obs.Counter
	cTimedout    *obs.Counter
	cReleases    *obs.Counter
	cResets      *obs.Counter
	cQuarantines *obs.Counter
	cPreempt     *obs.Counter
	cRestores    *obs.Counter
	cSchedWait   *obs.Counter
	cMigrations  *obs.Counter
}

// newPool builds pool index over the given ranks; all start NAAV. opts must
// already carry its defaults.
func newPool(index int, ranks []*pim.Rank, allocLatency time.Duration, opts Options, placed *obs.Counter) *pool {
	entries := make([]entry, len(ranks))
	for i, r := range ranks {
		entries[i] = entry{rank: r, state: StateNAAV}
	}
	reg := obs.NewRegistry()
	return &pool{
		index:        index,
		opts:         opts,
		allocLatency: allocLatency,
		placed:       placed,
		entries:      entries,
		parked:       make(map[string]*pim.Snapshot),
		stats:        make(map[string]*ownerStat),
		reg:          reg,
		cGranted:     reg.Counter("manager.allocs.granted"),
		cParked:      reg.Counter("manager.allocs.parked"),
		cTimedout:    reg.Counter("manager.allocs.timedout"),
		cReleases:    reg.Counter("manager.releases"),
		cResets:      reg.Counter("manager.resets"),
		cQuarantines: reg.Counter("manager.quarantines"),
		cPreempt:     reg.Counter("manager.preemptions"),
		cRestores:    reg.Counter("manager.restores"),
		cSchedWait:   reg.Counter("manager.sched.wait"),
		cMigrations:  reg.Counter("manager.migrations"),
	}
}

// alloc is the blocking allocation core (see Manager.Alloc). It reports the
// waiting/allocation latency and, separately, any absorbed checkpoint debt
// so callers that itemize costs (Acquire) can attribute the two on
// different trace lanes.
func (m *pool) alloc(owner string, hooks allocHooks) (*pim.Rank, time.Duration, time.Duration, error) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, 0, 0, ErrClosed
	}
	var stall time.Duration
	if m.fault != nil && m.fault.AllocStall != nil {
		stall = m.fault.AllocStall(owner)
	}
	// Fast path only when nobody is queued: a request must not overtake
	// older waiters (FIFO fairness).
	if len(m.waiters) == 0 {
		if g, ok := m.tryGrantLocked(owner); ok {
			m.mu.Unlock()
			return g.rank, m.allocLatency + g.extra + stall, g.ck, nil
		}
	}
	w := &waiter{owner: owner, ready: make(chan grant, 1)}
	m.waiters = append(m.waiters, w)
	m.cParked.Inc()
	// A parked request is the scheduler's trigger: under SchedSlice a
	// resident tenant past its quantum is checkpointed off its rank so the
	// queue keeps moving even when nobody releases voluntarily.
	m.scheduleLocked()
	m.mu.Unlock()

	if hooks.park != nil {
		hooks.park()
	}
	unpark := func() {
		if hooks.unpark != nil {
			hooks.unpark()
		}
	}

	// The retry loop of Section 3.5: sleep a poll interval, wake, check for
	// a grant, back off, repeat. The grant is observed at the poll boundary,
	// so the full interval it arrived within is charged.
	waited := stall
	interval := m.opts.RetryTimeout
	timer := time.NewTimer(interval)
	defer timer.Stop()
	finish := func(g grant) (*pim.Rank, time.Duration, time.Duration, error) {
		unpark()
		if g.err != nil {
			return nil, waited, 0, g.err
		}
		return g.rank, waited + m.allocLatency + g.extra, g.ck, nil
	}
	extended := 0
	for attempt := 1; ; attempt++ {
		select {
		case g := <-w.ready:
			waited += interval
			return finish(g)
		case <-timer.C:
			waited += interval
			// Each wake is a scheduling point: the pass ages the head
			// waiter, so a starved request eventually preempts a resident
			// tenant even when every owner is still under its quantum.
			m.mu.Lock()
			m.scheduleLocked()
			m.mu.Unlock()
			select {
			case g := <-w.ready:
				return finish(g)
			default:
			}
			if attempt >= m.opts.Retries {
				m.mu.Lock()
				if extended < m.opts.Retries && m.inFlightLocked(owner) {
					// The budget ran out while operations were in flight.
					// Each ends with a scheduling pass that can preempt its
					// tenant for this queue, so the budget measured host
					// speed, not contention: keep the queue position for
					// another budget, as many as a resume gets.
					extended++
					m.mu.Unlock()
					attempt, interval = 0, m.opts.RetryTimeout
					timer.Reset(interval)
					continue
				}
				removed := m.removeWaiterLocked(w)
				m.mu.Unlock()
				if removed {
					m.cTimedout.Inc()
					unpark()
					return nil, waited, 0, ErrNoRanks
				}
				// A grant raced with the abandonment; it was sent before
				// the waiter left the queue, so it is already buffered.
				return finish(<-w.ready)
			}
			interval = time.Duration(float64(interval) * m.opts.Backoff)
			timer.Reset(interval)
		}
	}
}

// inFlightLocked reports whether, under SchedSlice, another owner's
// operation is pinning a rank: its end is a scheduling point that can serve
// the queue.
func (m *pool) inFlightLocked(owner string) bool {
	if m.opts.SchedPolicy != SchedSlice {
		return false
	}
	for i := range m.entries {
		e := &m.entries[i]
		if e.state == StateALLO && e.pins > 0 && e.owner != owner && e.owner != nativeOwner {
			return true
		}
	}
	return false
}

// tryGrantLocked applies the Fig. 5 allocation policy for owner: same-owner
// NANA reuse, then round-robin over NAAV ranks, then a foreign NANA rank
// paid for with a reset. Ranks the fault policy reports dead are quarantined
// and skipped.
func (m *pool) tryGrantLocked(owner string) (grant, bool) {
	// 1. Prefer a NANA rank previously owned by the requester: no reset
	// needed, saving CPU cycles (Section 3.5). This also covers an owner
	// resuming onto the very rank it was preempted off.
	for i := range m.entries {
		e := &m.entries[i]
		if e.state == StateNANA && e.prevOwner == owner && m.usableLocked(e) {
			e.state = StateALLO
			e.owner = owner
			m.cGranted.Inc()
			return grant{rank: e.rank, ck: m.takeDebtLocked(e)}, true
		}
	}
	// 2. Round-robin over NAAV ranks.
	n := len(m.entries)
	for k := 0; k < n; k++ {
		i := (m.rrNext + k) % n
		e := &m.entries[i]
		if e.state == StateNAAV && m.usableLocked(e) {
			e.state = StateALLO
			e.owner = owner
			m.rrNext = (i + 1) % n
			m.cGranted.Inc()
			return grant{rank: e.rank, ck: m.takeDebtLocked(e)}, true
		}
	}
	// 3. Reset a foreign NANA rank; the requester waits out the memset.
	for i := range m.entries {
		e := &m.entries[i]
		if e.state == StateNANA && m.usableLocked(e) {
			if !m.resetLocked(e) {
				continue // reset failed: quarantined, keep looking
			}
			e.state = StateALLO
			e.owner = owner
			m.cGranted.Inc()
			return grant{rank: e.rank, extra: e.rank.ResetDuration(), ck: m.takeDebtLocked(e)}, true
		}
	}
	return grant{}, false
}

// takeDebtLocked transfers a rank's outstanding checkpoint debt (the copy
// that freed it during a preemption) to the caller, who charges it.
func (m *pool) takeDebtLocked(e *entry) time.Duration {
	d := e.debt
	e.debt = 0
	return d
}

// grantWaitersLocked serves queued requests strictly in FIFO order for as
// long as the head waiter can be satisfied. Called whenever a rank may have
// become allocatable.
func (m *pool) grantWaitersLocked() {
	for len(m.waiters) > 0 {
		w := m.waiters[0]
		g, ok := m.tryGrantLocked(w.owner)
		if !ok {
			return
		}
		m.waiters = m.waiters[1:]
		w.ready <- g
	}
}

func (m *pool) removeWaiterLocked(w *waiter) bool {
	for i, q := range m.waiters {
		if q == w {
			m.waiters = append(m.waiters[:i], m.waiters[i+1:]...)
			return true
		}
	}
	return false
}

// usableLocked applies the rank-death fault check to a rank about to be
// handed out; a dead rank is quarantined and reported unusable.
func (m *pool) usableLocked(e *entry) bool {
	if m.fault != nil && m.fault.RankDead != nil && m.fault.RankDead(e.rank.Index()) {
		m.quarantineLocked(e)
		return false
	}
	return true
}

// resetLocked erases a rank, honoring injected reset failures: a failed
// reset quarantines the rank and reports false.
func (m *pool) resetLocked(e *entry) bool {
	if m.fault != nil && m.fault.FailReset != nil && m.fault.FailReset(e.rank.Index()) {
		m.quarantineLocked(e)
		return false
	}
	e.rank.Reset()
	m.cResets.Inc()
	return true
}

func (m *pool) quarantineLocked(e *entry) {
	e.state = StateQUAR
	e.owner = ""
	e.prevOwner = ""
	e.pins = 0
	e.debt = 0 // the rank is out of service; nobody inherits its debt
	m.cQuarantines.Inc()
}

// Release returns a rank by pointer (see Manager.Release). Releasing a
// quarantined rank is a no-op: the rank is already out of service.
func (m *pool) Release(r *pim.Rank) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	e := m.entryLocked(r)
	if e == nil {
		return fmt.Errorf("%w: unknown rank", ErrNotAllocated)
	}
	if e.state == StateQUAR {
		return nil
	}
	if e.state != StateALLO {
		return fmt.Errorf("%w: rank %d in %v", ErrNotAllocated, r.Index(), e.state)
	}
	m.releaseEntryLocked(e)
	return nil
}

// vacateLocked moves an ALLO entry to NANA, remembering its owner for
// reset-free reuse. The departing owner's slice account resets so its next
// residency starts a fresh quantum.
func (m *pool) vacateLocked(e *entry) {
	if st := m.stats[e.owner]; st != nil {
		st.slice = 0
	}
	e.state = StateNANA
	e.prevOwner = e.owner
	e.owner = ""
}

// releaseEntryLocked vacates an ALLO entry and serves the queue.
func (m *pool) releaseEntryLocked(e *entry) {
	m.vacateLocked(e)
	e.pins = 0
	m.cReleases.Inc()
	m.grantWaitersLocked()
}

// entryLocked finds the table entry for a rank (nil for nil or unknown).
func (m *pool) entryLocked(r *pim.Rank) *entry {
	if r == nil {
		return nil
	}
	for i := range m.entries {
		if m.entries[i].rank == r {
			return &m.entries[i]
		}
	}
	return nil
}

// ProcessResets performs the observer's erase pass over this pool (see
// Manager.ProcessResets).
func (m *pool) ProcessResets() time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	var total time.Duration
	for i := range m.entries {
		e := &m.entries[i]
		if e.state == StateNANA {
			if !m.resetLocked(e) {
				continue
			}
			// The observer's thread absorbs any checkpoint debt left on
			// the rank: the preempted tenant never resumed here, so the
			// background erase pays for the copy too.
			total += e.rank.ResetDuration() + m.takeDebtLocked(e)
			e.state = StateNAAV
			e.prevOwner = ""
		}
	}
	m.grantWaitersLocked()
	m.scheduleLocked()
	return total
}

// RetryQuarantined revives this pool's quarantined ranks whose fault has
// cleared (see Manager.RetryQuarantined).
func (m *pool) RetryQuarantined() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	revived := 0
	for i := range m.entries {
		e := &m.entries[i]
		if e.state != StateQUAR {
			continue
		}
		if m.fault != nil && m.fault.RankDead != nil && m.fault.RankDead(e.rank.Index()) {
			continue
		}
		if m.fault != nil && m.fault.FailReset != nil && m.fault.FailReset(e.rank.Index()) {
			continue
		}
		e.rank.Reset()
		m.cResets.Inc()
		e.state = StateNAAV
		revived++
	}
	if revived > 0 {
		m.grantWaitersLocked()
	}
	return revived
}

// CheckRank verifies one of this pool's ranks against the fault policy
// (see Manager.CheckRank).
func (m *pool) CheckRank(r *pim.Rank) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	e := m.entryLocked(r)
	switch {
	case e == nil:
		return nil
	case e.state == StateQUAR:
		return ErrRankFaulted
	case m.fault != nil && m.fault.RankDead != nil && m.fault.RankDead(r.Index()):
		m.quarantineLocked(e)
		return ErrRankFaulted
	}
	return nil
}

// Close shuts the pool's allocation path down: pending waiters are woken
// with ErrClosed and future allocations fail fast. Idempotent.
func (m *pool) Close() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return
	}
	m.closed = true
	for _, w := range m.waiters {
		w.ready <- grant{err: ErrClosed}
	}
	m.waiters = nil
	// Parked snapshots can never resume once allocation is closed.
	m.parked = make(map[string]*pim.Snapshot)
}

// takeNative marks usable ranks ALLO to the native owner, in table order,
// until want DPUs are covered or the table is exhausted. Native
// applications bypass the socket protocol, so the FIFO queue is not
// consulted.
func (m *pool) takeNative(want int) (picked []*pim.Rank, covered int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i := range m.entries {
		if covered >= want {
			break
		}
		e := &m.entries[i]
		switch e.state {
		case StateNAAV:
			if !m.usableLocked(e) {
				continue
			}
		case StateNANA:
			if !m.usableLocked(e) || !m.resetLocked(e) {
				continue
			}
			// Native acquisitions bypass virtual-clock charging entirely,
			// so any checkpoint debt on the rank is dropped rather than
			// charged to a tenant that never sees a clock.
			e.debt = 0
		default:
			continue
		}
		e.state = StateALLO
		e.owner = nativeOwner
		picked = append(picked, e.rank)
		covered += e.rank.NumDPUs()
	}
	return picked, covered
}

// untakeNative rolls back a partial native acquisition: those of ranks in
// this pool return clean (NAAV) and the queue is served.
func (m *pool) untakeNative(ranks []*pim.Rank) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, r := range ranks {
		if e := m.entryLocked(r); e != nil {
			e.state = StateNAAV
			e.owner = ""
		}
	}
	m.grantWaitersLocked()
}

// table copies the pool's rank table. A dead pool's ranks read QUAR with no
// owner: the whole failure domain is out of service.
func (m *pool) table() []entry {
	m.mu.Lock()
	out := append([]entry(nil), m.entries...)
	m.mu.Unlock()
	if m.dead.Load() {
		for i := range out {
			out[i].state, out[i].owner = StateQUAR, ""
		}
	}
	return out
}

// loadSnapshot reports the pool's routing signal: usable free ranks
// (NAAV+NANA, quarantine excluded), residents and queued waiters.
func (m *pool) loadSnapshot() (free, allo, waiters int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i := range m.entries {
		switch m.entries[i].state {
		case StateNAAV, StateNANA:
			free++
		case StateALLO:
			allo++
		}
	}
	return free, allo, len(m.waiters)
}

// Waiters reports how many allocation requests are parked in the queue.
func (m *pool) Waiters() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.waiters)
}
