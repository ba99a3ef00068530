package manager

import (
	"fmt"
	"time"

	"repro/internal/pim"
)

// MigrateOwned moves the tenant state of owner's allocated rank onto
// another available rank and reassigns ownership: the dynamic workload
// consolidation mechanism the paper's conclusion proposes (checkpoint/
// restore between launches, since UPMEM cannot pause a running task). It
// refuses to move a rank that owner no longer holds (e.g. the tenant was
// preempted and the rank reassigned between the owner deciding to migrate
// and the call landing).
//
// On success the returned rank is ALLO for the same owner with identical
// contents, and the source rank is NANA awaiting reset. The returned
// duration is the virtual checkpoint + restore (+ reset, when the target
// was dirty) cost, which the caller charges to whoever requested the
// migration. On failure the duration covers whatever preparation work was
// actually performed (a target reset, a checkpoint copy) — the caller owes
// that time even though the migration did not happen.
func (m *pool) MigrateOwned(owner string, from *pim.Rank) (*pim.Rank, time.Duration, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	src := m.entryLocked(from)
	if src == nil || src.state != StateALLO || src.owner != owner {
		return nil, 0, fmt.Errorf("%w: migration source (owner %s)", ErrNotAllocated, owner)
	}
	if src.pins > 0 {
		return nil, 0, fmt.Errorf("%w: rank %d has an operation in flight", ErrRankBusy, src.rank.Index())
	}

	// Pick a destination: prefer clean NAAV ranks, fall back to resetting
	// a NANA rank. Dead or reset-failing targets are quarantined and
	// skipped, like in the allocation path.
	var dst *entry
	var extra time.Duration
	for i := range m.entries {
		e := &m.entries[i]
		if e.rank != from && e.state == StateNAAV && m.usableLocked(e) {
			dst = e
			break
		}
	}
	if dst == nil {
		for i := range m.entries {
			e := &m.entries[i]
			if e.rank != from && e.state == StateNANA && m.usableLocked(e) {
				if !m.resetLocked(e) {
					continue
				}
				extra += e.rank.ResetDuration()
				dst = e
				break
			}
		}
	}
	if dst == nil {
		return nil, 0, fmt.Errorf("%w: no migration target", ErrNoRanks)
	}
	// The target's checkpoint debt (if it was freed by a preemption) rides
	// along with whatever this migration charges.
	extra += m.takeDebtLocked(dst)

	snap, ckDur, err := m.checkpointLocked(src)
	if err != nil {
		// The prepared target goes back to the pool and is re-offered to
		// the queue; the reset work already done is charged to the caller
		// rather than silently dropped.
		m.unwindTargetLocked(dst)
		return nil, extra, fmt.Errorf("checkpoint rank %d: %w", from.Index(), err)
	}
	var rsDur time.Duration
	if m.fault != nil && m.fault.FailRestore != nil && m.fault.FailRestore(dst.rank.Index()) {
		err = fmt.Errorf("injected restore fault on rank %d", dst.rank.Index())
	} else {
		rsDur, err = dst.rank.Restore(snap)
	}
	if err != nil {
		// A half-restored target holds an unknown mix of tenant bytes:
		// quarantine it rather than leave it allocatable (R2).
		m.quarantineLocked(dst)
		return nil, extra + ckDur, fmt.Errorf("restore rank %d: %v", dst.rank.Index(), err)
	}

	dst.state = StateALLO
	dst.owner = src.owner
	src.state = StateNANA
	src.prevOwner = src.owner
	src.owner = ""
	m.cMigrations.Inc()
	// The source rank just became reclaimable: serve any queued request.
	m.grantWaitersLocked()
	return dst.rank, extra + ckDur + rsDur, nil
}

// checkpointLocked snapshots a rank, honoring injected checkpoint faults.
func (m *pool) checkpointLocked(e *entry) (*pim.Snapshot, time.Duration, error) {
	if m.fault != nil && m.fault.FailCheckpoint != nil && m.fault.FailCheckpoint(e.rank.Index()) {
		return nil, 0, fmt.Errorf("injected checkpoint fault")
	}
	return e.rank.Checkpoint()
}

// evictOwned checkpoints owner's rank and frees it (NANA, reset-free for
// the departed owner), returning the snapshot and the checkpoint cost for
// the caller to charge — the source half of a cross-pool migration. Unlike
// a preemption the cost is not left as rank debt: the migrating tenant pays.
func (m *pool) evictOwned(owner string, r *pim.Rank) (*pim.Snapshot, time.Duration, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e := m.entryLocked(r)
	if e == nil || e.state != StateALLO || e.owner != owner {
		return nil, 0, fmt.Errorf("%w: eviction source (owner %s)", ErrNotAllocated, owner)
	}
	if e.pins > 0 {
		return nil, 0, fmt.Errorf("%w: rank %d has an operation in flight", ErrRankBusy, e.rank.Index())
	}
	snap, ckDur, err := m.checkpointLocked(e)
	if err != nil {
		return nil, 0, fmt.Errorf("checkpoint rank %d: %w", e.rank.Index(), err)
	}
	m.vacateLocked(e)
	m.grantWaitersLocked()
	return snap, ckDur, nil
}

// unwindTargetLocked returns a prepared-but-unused migration target to the
// pool: clean (NAAV) — it was either already clean or just reset — and
// immediately re-offered to parked waiters.
func (m *pool) unwindTargetLocked(e *entry) {
	e.state = StateNAAV
	e.owner = ""
	e.prevOwner = ""
	m.grantWaitersLocked()
}
