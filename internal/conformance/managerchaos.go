// Seeded manager chaos: a single-goroutine, fully deterministic torture of
// manager.Alloc / Acquire / EndOp / ReleaseOwned / MigrateOwned / Rebalance
// while rank deaths, failed resets, checkpoints and restores and (with
// several pools) a whole-pool death fire from seeded fuses. Every manager
// call happens on the driving goroutine, so grants, p2c routing, fuse
// consumption and the whole outcome are functions of the seed: replaying a
// seed reproduces the outcome bit-for-bit. One loop runs two scenarios, the
// preemptive scheduler on one pool and behind three pools. At every step a
// tenant's byte must survive preemption, restore, migration and
// rebalancing (a dead rank or pool surfaces as ErrRankFaulted, never as
// corruption); at the end, with faults off, every owner drains cleanly.
package conformance

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/manager"
	"repro/internal/obs"
	"repro/internal/pim"
)

// fuse is a countdown fault trigger: inert for the first `after`
// consultations, then firing on the next `hold` consultations.
type fuse struct {
	after int
	hold  int
}

func (f *fuse) trip() bool {
	if f == nil {
		return false
	}
	if f.after > 0 {
		f.after--
		return false
	}
	if f.hold == 0 {
		return false
	}
	f.hold--
	return true
}

// maybeFuse returns a fuse when armed, nil otherwise. Callers draw all
// three arguments unconditionally (Go evaluates them left to right), so the
// rand stream depends only on the seed.
func maybeFuse(after, hold int, armed bool) *fuse {
	if !armed {
		return nil
	}
	return &fuse{after: after, hold: hold}
}

// fuseDraw holds the constants a chaos plan draws its manager fuses with:
// a rank's death fuse arms when rng.Intn(deadOdds) == deadHit, after
// deadAfter plus up to deadSpan consultations, for 1..deadHolds of them;
// the reset fuse arms after up to resetSpan consultations and the
// checkpoint and restore fuses after up to ckptSpan.
type fuseDraw struct {
	deadAfter, deadSpan, deadHolds, deadOdds, deadHit int
	resetSpan, ckptSpan                               int
}

// faultPlan is the manager half of a compiled chaos plan. All state is
// consulted and mutated on the single goroutine driving the run, so the
// countdowns advance deterministically with the manager's own activity.
type faultPlan struct {
	disabled bool

	rankDead  map[int]*fuse // keyed by machine rank index
	failReset *fuse
	failCkpt  *fuse
	failRest  *fuse
}

// drawFaultPlan draws a death fuse per rank, then the reset, checkpoint and
// restore fuses.
func drawFaultPlan(rng *rand.Rand, ranks int, d fuseDraw) faultPlan {
	p := faultPlan{rankDead: make(map[int]*fuse, ranks)}
	for r := 0; r < ranks; r++ {
		p.rankDead[r] = maybeFuse(d.deadAfter+rng.Intn(d.deadSpan), 1+rng.Intn(d.deadHolds), rng.Intn(d.deadOdds) == d.deadHit)
	}
	p.failReset = maybeFuse(rng.Intn(d.resetSpan), 1+rng.Intn(2), rng.Intn(2) == 1)
	p.failCkpt = maybeFuse(rng.Intn(d.ckptSpan), 1+rng.Intn(2), rng.Intn(2) == 1)
	p.failRest = maybeFuse(rng.Intn(d.ckptSpan), 1+rng.Intn(2), rng.Intn(2) == 1)
	return p
}

// policy builds the manager fault policy the plan's fuses drive.
func (p *faultPlan) policy() *manager.FaultPolicy {
	return &manager.FaultPolicy{
		RankDead:       func(rank int) bool { return !p.disabled && p.rankDead[rank].trip() },
		FailReset:      func(rank int) bool { return !p.disabled && p.failReset.trip() },
		FailCheckpoint: func(rank int) bool { return !p.disabled && p.failCkpt.trip() },
		FailRestore:    func(rank int) bool { return !p.disabled && p.failRest.trip() },
	}
}

// checkDrained is the convergence contract every chaos and time-slicing run
// ends on: no rank left ALLO, no waiter parked, no snapshot parked. A dead
// pool is out of service, so States reports its ranks QUAR and
// Waiters/Parked skip it.
func checkDrained(mgr *manager.Manager) error {
	for i, s := range mgr.States() {
		if s == manager.StateALLO {
			return fmt.Errorf("rank %d still ALLO (leaked allocation)", i)
		}
	}
	if n := mgr.Waiters(); n != 0 {
		return fmt.Errorf("%d waiters still parked", n)
	}
	if parked := mgr.Parked(); len(parked) != 0 {
		return fmt.Errorf("snapshots permanently parked: %v", parked)
	}
	return nil
}

// errClass folds an error into a stable label for the deterministic log.
func errClass(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, manager.ErrRankFaulted):
		return "faulted"
	case errors.Is(err, manager.ErrNoRanks):
		return "noranks"
	case errors.Is(err, manager.ErrNotAllocated):
		return "notalloc"
	case errors.Is(err, manager.ErrRankBusy):
		return "busy"
	default:
		return "error"
	}
}

// ManagerOutcome is the deterministic fingerprint of one manager chaos run.
type ManagerOutcome struct {
	Seed    int64
	Log     []string
	Metrics map[string]int64
	Sched   []manager.OwnerSched
	Stats   manager.ClusterStats
}

// chaosScenario is one shape of the manager chaos run.
type chaosScenario struct {
	label  string // failure-message prefix
	prefix string // owner-name prefix
	pools  int
	owners int
	steps  int
	fuses  fuseDraw
	// Action weights of one step: an operation, a release, a migration, a
	// rebalance and an observer tick.
	op, release, migrate, rebalance, observe int
	// killPool draws a step at which one pool dies.
	killPool bool
	// drainAttempts bounds each owner's drain (observer passes between).
	drainAttempts int
}

const (
	chaosPoolRanks = 2
	// chaosOpCost is the virtual runtime charged per chaos operation; at
	// 3 ms against a 4 ms quantum, owners cross the preemption threshold
	// on their second operation.
	chaosOpCost = 3 * time.Millisecond
)

// schedScenario has five owners time-share one pool of two ranks, so
// preemption races rank death and restore failure; clusterScenario spreads
// eight owners over three pools, where a pool death races rebalancing and
// cross-pool restores.
var (
	schedScenario = chaosScenario{
		label: "sched chaos", prefix: "chaos", pools: 1, owners: 5, steps: 140, drainAttempts: 4,
		fuses: fuseDraw{deadAfter: 15, deadSpan: 80, deadHolds: 2, deadOdds: 2, deadHit: 1, resetSpan: 8, ckptSpan: 10},
		op:    6, release: 2, migrate: 1, observe: 1,
	}
	clusterScenario = chaosScenario{
		label: "cluster chaos", prefix: "cchaos", pools: 3, owners: 8, steps: 160, drainAttempts: 5, killPool: true,
		fuses: fuseDraw{deadAfter: 20, deadSpan: 90, deadHolds: 2, deadOdds: 3, deadHit: 0, resetSpan: 8, ckptSpan: 10},
		op:    7, release: 2, migrate: 1, rebalance: 1, observe: 1,
	}
)

// RunSchedChaos runs the one-pool scheduler scenario for seed.
func RunSchedChaos(seed int64) (*ManagerOutcome, error) {
	return runManagerChaos(schedScenario, seed)
}

// RunClusterChaos runs the three-pool scenario for seed.
func RunClusterChaos(seed int64) (*ManagerOutcome, error) {
	return runManagerChaos(clusterScenario, seed)
}

// chaosOwner is one tenant's view of its rank and the last byte it wrote.
type chaosOwner struct {
	rank *pim.Rank
	has  bool
	seq  byte
}

// touch reads the owner's byte back — it must have survived whatever
// preemptions, restores, migrations and rebalances happened since the
// write — and, with next, writes the owner's next byte.
func (st *chaosOwner) touch(r *pim.Rank, next bool) error {
	if st.has {
		var b [1]byte
		if err := r.ReadDPU(0, 0, b[:]); err != nil {
			return fmt.Errorf("readback: %v", err)
		}
		if b[0] != st.seq {
			return fmt.Errorf("byte changed across scheduling: %#02x != %#02x (a preemption or move corrupted bytes)", b[0], st.seq)
		}
	}
	if !next {
		return nil
	}
	st.seq++
	if err := r.WriteDPU(0, 0, []byte{st.seq}); err != nil {
		return fmt.Errorf("write: %v", err)
	}
	st.has = true
	return nil
}

// runManagerChaos executes sc's fault plan for seed and returns the
// deterministic outcome. Contract violations (a changed byte, a leaked
// rank, a failed convergence) are returned as errors embedding the seed
// for replay.
func runManagerChaos(sc chaosScenario, seed int64) (*ManagerOutcome, error) {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("%s seed %d: %s", sc.label, seed, fmt.Sprintf(format, args...))
	}
	rng := rand.New(rand.NewSource(seed))
	plan := drawFaultPlan(rng, sc.pools*chaosPoolRanks, sc.fuses)
	killStep, killPool := -1, 0
	if sc.killPool {
		step, pool := 40+rng.Intn(80), rng.Intn(sc.pools)
		if rng.Intn(2) == 1 {
			killStep, killPool = step, pool
		}
	}
	mach, err := pim.NewMachine(pim.MachineConfig{
		Ranks: sc.pools * chaosPoolRanks,
		Rank:  pim.RankConfig{DPUs: 4, MRAMBytes: 1 << 20},
	})
	if err != nil {
		return nil, err
	}
	mgr := manager.New(mach, manager.Options{
		SchedPolicy:     manager.SchedSlice,
		Quantum:         4 * time.Millisecond,
		Retries:         4,
		RetryTimeout:    time.Millisecond,
		Backoff:         1,
		Shards:          sc.pools,
		PlacementSeed:   seed,
		FailoverBackoff: time.Millisecond,
	})
	mgr.SetFaultPolicy(plan.policy())

	out := &ManagerOutcome{Seed: seed}
	logf := func(format string, args ...any) {
		out.Log = append(out.Log, fmt.Sprintf(format, args...))
	}
	owners := make([]chaosOwner, sc.owners)
	name := func(o int) string { return fmt.Sprintf("%s%d", sc.prefix, o) }

	prev := mgr.Metrics()
	for step := 0; step < sc.steps; step++ {
		if step == killStep {
			err := mgr.KillShard(killPool)
			logf("step=%d killshard=%d %s", step, killPool, errClass(err))
		}
		o := rng.Intn(sc.owners)
		st := &owners[o]
		switch act := rng.Intn(sc.op + sc.release + sc.migrate + sc.rebalance + sc.observe); {
		case act < sc.op: // one operation: acquire (or alloc), verify, write, end
			var r *pim.Rank
			if st.rank == nil {
				r, _, err = mgr.Alloc(name(o))
				logf("step=%d owner=%d alloc %s", step, o, errClass(err))
			} else {
				r, _, err = mgr.Acquire(name(o), st.rank)
				logf("step=%d owner=%d acquire %s", step, o, errClass(err))
				if errors.Is(err, manager.ErrRankFaulted) {
					// The rank (or its whole pool) died with our bytes on
					// it, or the parked snapshot was lost: state is gone.
					*st = chaosOwner{}
				}
			}
			if err != nil {
				continue
			}
			st.rank = r
			if err := st.touch(r, true); err != nil {
				return nil, fail("owner %d %v", o, err)
			}
			mgr.EndOp(r, chaosOpCost)
		case act < sc.op+sc.release:
			if st.rank == nil {
				continue
			}
			err := mgr.ReleaseOwned(name(o), st.rank)
			logf("step=%d owner=%d release %s", step, o, errClass(err))
			*st = chaosOwner{}
		case act < sc.op+sc.release+sc.migrate: // cross-pool when the home pool is dry
			if st.rank == nil {
				continue
			}
			dst, _, err := mgr.MigrateOwned(name(o), st.rank)
			logf("step=%d owner=%d migrate %s", step, o, errClass(err))
			if err == nil {
				st.rank = dst
			}
		case act < sc.op+sc.release+sc.migrate+sc.rebalance: // drain the hottest pool toward the coldest
			moved := mgr.Rebalance()
			logf("step=%d rebalance moved=%d", step, moved)
		default: // observer tick
			mgr.ProcessResets()
			revived := mgr.RetryQuarantined()
			logf("step=%d observer revived=%d", step, revived)
		}
		cur := mgr.Metrics()
		if err := obs.CheckMonotonic(prev, cur); err != nil {
			return nil, fail("step %d: %v", step, err)
		}
		prev = cur
	}

	// Convergence: faults off, every owner drains. An owner whose rank or
	// pool died observes ErrRankFaulted (its state died with the failure
	// domain); everyone else must unwind cleanly, possibly after an
	// observer pass revives a quarantined rank.
	plan.disabled = true
	for o := range owners {
		st := &owners[o]
		if st.rank == nil {
			continue
		}
		drained := false
		for attempt := 0; attempt < sc.drainAttempts && !drained; attempt++ {
			r, _, err := mgr.Acquire(name(o), st.rank)
			switch {
			case err == nil:
				if err := st.touch(r, false); err != nil {
					return nil, fail("owner %d %v", o, err)
				}
				mgr.EndOp(r, 0)
				if err := mgr.ReleaseOwned(name(o), r); err != nil {
					return nil, fail("drain owner %d release: %v", o, err)
				}
				drained = true
			case errors.Is(err, manager.ErrRankFaulted):
				drained = true // state died with its rank or pool
			default:
				mgr.ProcessResets()
				mgr.RetryQuarantined()
			}
		}
		if !drained {
			return nil, fail("owner %d could not drain (permanently parked)", o)
		}
		st.rank = nil
	}
	mgr.ProcessResets()
	mgr.RetryQuarantined()
	mgr.ProcessResets()
	if err := checkDrained(mgr); err != nil {
		return nil, fail("after drain: %v", err)
	}

	out.Metrics = mgr.Metrics()
	out.Sched = mgr.Sched()
	out.Stats = mgr.Stats()
	return out, nil
}
