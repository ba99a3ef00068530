// Seeded chaos for the sharded manager: a single-goroutine, fully
// deterministic torture of Manager.Alloc / Acquire / EndOp / ReleaseOwned /
// MigrateOwned / Rebalance with eight owners spread over three pools while rank deaths, failed resets, failed checkpoints,
// failed cross-shard restores and a whole-shard death fire from seeded
// fuses. Every cluster interaction happens on the driving goroutine, so
// routing decisions (the seeded p2c sampler), fuse consumption and the
// entire outcome are functions of the seed alone: replaying a seed must
// reproduce the outcome bit-for-bit.
//
// The harness verifies the cluster's data contract at every step — a
// tenant's byte survives preemption, restore, cross-shard migration and
// rebalancing; a dead shard surfaces as ErrRankFaulted, never as silent
// corruption — and the convergence contract at the end: with faults
// disabled, every owner drains cleanly, leaving no ALLO rank, no parked
// snapshot and no waiter on any live shard.
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

// ClusterOutcome is the deterministic fingerprint of one cluster chaos run.
type ClusterOutcome struct {
	Seed    int64
	Log     []string
	Metrics map[string]int64
	Stats   manager.ClusterStats
}

const (
	clusterChaosShards = 3
	clusterChaosRanks  = 2 // per shard
	clusterChaosOwners = 8
	clusterChaosSteps  = 160
)

// clusterPlan is the compiled fault plan. Rank fuses are keyed by global
// rank index (the index FaultPolicy callbacks receive); the same fuse set
// is installed on every shard, and because all activity runs on one
// goroutine the shards consume it deterministically.
type clusterPlan struct {
	disabled bool

	rankDead  map[int]*fuse
	failReset *fuse
	failCkpt  *fuse
	failRest  *fuse

	// killStep is the step index at which killShard dies (-1: never).
	killStep  int
	killShard int
}

// compileClusterPlan draws the plan; every draw is unconditional so the
// rand stream depends only on the seed.
func compileClusterPlan(rng *rand.Rand) *clusterPlan {
	p := &clusterPlan{rankDead: make(map[int]*fuse), killStep: -1}
	for r := 0; r < clusterChaosShards*clusterChaosRanks; r++ {
		after, hold := 20+rng.Intn(90), 1+rng.Intn(2)
		if rng.Intn(3) == 0 {
			p.rankDead[r] = &fuse{after: after, hold: hold}
		}
	}
	after, hold := rng.Intn(8), 1+rng.Intn(2)
	if rng.Intn(2) == 1 {
		p.failReset = &fuse{after: after, hold: hold}
	}
	after, hold = rng.Intn(10), 1+rng.Intn(2)
	if rng.Intn(2) == 1 {
		p.failCkpt = &fuse{after: after, hold: hold}
	}
	after, hold = rng.Intn(10), 1+rng.Intn(2)
	if rng.Intn(2) == 1 {
		p.failRest = &fuse{after: after, hold: hold}
	}
	step, sh := 40+rng.Intn(80), rng.Intn(clusterChaosShards)
	if rng.Intn(2) == 1 {
		p.killStep, p.killShard = step, sh
	}
	return p
}

func (p *clusterPlan) policy() *manager.FaultPolicy {
	return &manager.FaultPolicy{
		RankDead:       func(rank int) bool { return !p.disabled && p.rankDead[rank].trip() },
		FailReset:      func(rank int) bool { return !p.disabled && p.failReset.trip() },
		FailCheckpoint: func(rank int) bool { return !p.disabled && p.failCkpt.trip() },
		FailRestore:    func(rank int) bool { return !p.disabled && p.failRest.trip() },
	}
}

// RunClusterChaos executes the cluster fault plan for seed and returns the
// deterministic outcome. Contract violations (a changed byte, a leaked
// rank, a failed convergence) are returned as errors embedding the seed
// for replay.
func RunClusterChaos(seed int64) (*ClusterOutcome, error) {
	rng := rand.New(rand.NewSource(seed))
	plan := compileClusterPlan(rng)
	mach, err := pim.NewMachine(pim.MachineConfig{
		Ranks: clusterChaosShards * clusterChaosRanks,
		Rank:  pim.RankConfig{DPUs: 4, MRAMBytes: 1 << 20},
	})
	if err != nil {
		return nil, err
	}
	cl := manager.New(mach, manager.Options{
		SchedPolicy:     manager.SchedSlice,
		Quantum:         4 * time.Millisecond,
		Retries:         4,
		RetryTimeout:    time.Millisecond,
		Backoff:         1,
		Shards:          clusterChaosShards,
		PlacementSeed:   seed,
		FailoverBackoff: time.Millisecond,
	})
	cl.SetFaultPolicy(plan.policy())

	out := &ClusterOutcome{Seed: seed}
	logf := func(format string, args ...any) {
		out.Log = append(out.Log, fmt.Sprintf(format, args...))
	}
	owners := make([]schedOwner, clusterChaosOwners)
	name := func(o int) string { return fmt.Sprintf("cchaos%d", o) }

	verify := func(o int, r *pim.Rank) error {
		st := &owners[o]
		if !st.has {
			return nil
		}
		var b [1]byte
		if err := r.ReadDPU(0, 0, b[:]); err != nil {
			return fmt.Errorf("cluster chaos seed %d: owner %d readback: %v", seed, o, err)
		}
		if b[0] != st.seq {
			return fmt.Errorf("cluster chaos seed %d: owner %d byte changed across scheduling: %#02x != %#02x (cross-shard move corrupted bytes)",
				seed, o, b[0], st.seq)
		}
		return nil
	}
	write := func(o int, r *pim.Rank) error {
		st := &owners[o]
		st.seq++
		if err := r.WriteDPU(0, 0, []byte{st.seq}); err != nil {
			return fmt.Errorf("cluster chaos seed %d: owner %d write: %v", seed, o, err)
		}
		st.has = true
		return nil
	}

	prev := cl.Metrics()
	for step := 0; step < clusterChaosSteps; step++ {
		if step == plan.killStep {
			err := cl.KillShard(plan.killShard)
			logf("step=%d killshard=%d %s", step, plan.killShard, errClass(err))
		}
		o := rng.Intn(clusterChaosOwners)
		st := &owners[o]
		switch act := rng.Intn(12); {
		case act < 7: // one operation: acquire (or alloc), verify, write, end
			if st.rank == nil {
				r, _, err := cl.Alloc(name(o))
				logf("step=%d owner=%d alloc %s", step, o, errClass(err))
				if err != nil {
					continue
				}
				st.rank = r
				if err := write(o, r); err != nil {
					return nil, err
				}
				cl.EndOp(r, schedOpCost)
				continue
			}
			r, _, err := cl.Acquire(name(o), st.rank)
			logf("step=%d owner=%d acquire %s", step, o, errClass(err))
			if err != nil {
				if errors.Is(err, manager.ErrRankFaulted) {
					// The rank (or its whole shard) died with our bytes on
					// it: state is gone, start over.
					st.rank, st.has, st.seq = nil, false, 0
				}
				continue
			}
			st.rank = r
			if err := verify(o, r); err != nil {
				return nil, err
			}
			if err := write(o, r); err != nil {
				return nil, err
			}
			cl.EndOp(r, schedOpCost)
		case act < 9: // release
			if st.rank == nil {
				continue
			}
			err := cl.ReleaseOwned(name(o), st.rank)
			logf("step=%d owner=%d release %s", step, o, errClass(err))
			st.rank, st.has, st.seq = nil, false, 0
		case act < 10: // migrate (cross-shard when the home shard is dry)
			if st.rank == nil {
				continue
			}
			dst, _, err := cl.MigrateOwned(name(o), st.rank)
			logf("step=%d owner=%d migrate %s", step, o, errClass(err))
			if err == nil {
				st.rank = dst
			}
		case act < 11: // drain the hottest shard toward the coldest
			moved := cl.Rebalance()
			logf("step=%d rebalance moved=%d", step, moved)
		default: // observer tick
			cl.ProcessResets()
			revived := cl.RetryQuarantined()
			logf("step=%d observer revived=%d", step, revived)
		}
		cur := cl.Metrics()
		if err := obs.CheckMonotonic(prev, cur); err != nil {
			return nil, fmt.Errorf("cluster chaos seed %d step %d: %w", seed, step, err)
		}
		prev = cur
	}

	// Convergence: faults off, every owner drains. Owners whose shard died
	// observe ErrRankFaulted (state died with the failure domain); everyone
	// else must unwind cleanly, possibly after an observer pass revives a
	// quarantined rank.
	plan.disabled = true
	for o := range owners {
		st := &owners[o]
		if st.rank == nil {
			continue
		}
		drained := false
		for attempt := 0; attempt < 5 && !drained; attempt++ {
			r, _, err := cl.Acquire(name(o), st.rank)
			switch {
			case err == nil:
				if verr := verify(o, r); verr != nil {
					return nil, verr
				}
				cl.EndOp(r, 0)
				if rerr := cl.ReleaseOwned(name(o), r); rerr != nil {
					return nil, fmt.Errorf("cluster chaos seed %d: drain owner %d release: %v", seed, o, rerr)
				}
				drained = true
			case errors.Is(err, manager.ErrRankFaulted):
				drained = true // state died with its rank or shard
			default:
				cl.ProcessResets()
				cl.RetryQuarantined()
			}
		}
		if !drained {
			return nil, fmt.Errorf("cluster chaos seed %d: owner %d could not drain (permanently parked)", seed, o)
		}
		st.rank = nil
	}
	cl.ProcessResets()
	cl.RetryQuarantined()
	cl.ProcessResets()
	for _, sh := range cl.Stats().Shards {
		if sh.Dead {
			continue
		}
		if sh.Resident != 0 {
			return nil, fmt.Errorf("cluster chaos seed %d: shard %d has %d ranks still ALLO after drain (leaked allocation)", seed, sh.Index, sh.Resident)
		}
		if sh.Waiters != 0 {
			return nil, fmt.Errorf("cluster chaos seed %d: shard %d has %d waiters still parked after drain", seed, sh.Index, sh.Waiters)
		}
		if sh.Parked != 0 {
			return nil, fmt.Errorf("cluster chaos seed %d: shard %d has %d snapshots permanently parked", seed, sh.Index, sh.Parked)
		}
	}

	out.Metrics = cl.Metrics()
	out.Stats = cl.Stats()
	return out, nil
}
