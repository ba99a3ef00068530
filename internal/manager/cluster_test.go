package manager

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/pim"
)

// clusterOpts bounds the per-shard retry budget so saturation tests fail
// fast instead of sleeping out the default backoff ladder.
func clusterOpts() Options {
	return Options{Retries: 2, RetryTimeout: time.Millisecond, Backoff: 1}
}

func testCluster(t *testing.T, ranks, shards int, opts Options) *Manager {
	t.Helper()
	opts.Shards = shards
	return New(testMachine(t, ranks), opts)
}

// shardOf maps a rank to the index of the pool that owns it.
func shardOf(t *testing.T, m *Manager, r *pim.Rank) int {
	t.Helper()
	p := m.byRank[r]
	if p == nil {
		t.Fatalf("rank %d not owned by any shard", r.Index())
	}
	return p.index
}

func TestClusterPlacementSpreads(t *testing.T) {
	cl := testCluster(t, 4, 2, clusterOpts())
	for o := 0; o < 4; o++ {
		if _, _, err := cl.Alloc(fmt.Sprintf("vm%d", o)); err != nil {
			t.Fatalf("alloc vm%d: %v", o, err)
		}
	}
	st := cl.Stats()
	if st.Placements != 4 {
		t.Errorf("placements = %d, want 4", st.Placements)
	}
	var perShard int64
	for _, si := range st.Shards {
		if si.Resident != 2 {
			t.Errorf("shard %d residency = %d, want 2 (placement must spread across shards)", si.Index, si.Resident)
		}
		perShard += si.Placements
	}
	if perShard != st.Placements {
		t.Errorf("per-shard placements sum %d != total %d", perShard, st.Placements)
	}
}

func TestClusterRoundRobin(t *testing.T) {
	opts := clusterOpts()
	opts.Placement = PlaceRR
	cl := testCluster(t, 4, 2, opts)
	want := []int{0, 1, 0, 1}
	for o, w := range want {
		r, _, err := cl.Alloc(fmt.Sprintf("vm%d", o))
		if err != nil {
			t.Fatalf("alloc vm%d: %v", o, err)
		}
		if got := shardOf(t, cl, r); got != w {
			t.Errorf("alloc %d landed on shard %d, want %d (round-robin)", o, got, w)
		}
	}
}

// TestClusterStickySameOwnerReuse releases and re-allocates the same owner:
// the placement must stay sticky so the shard's same-owner NANA reuse path
// hands back the very same rank without a reset.
func TestClusterStickySameOwnerReuse(t *testing.T) {
	cl := testCluster(t, 4, 2, clusterOpts())
	r, _, err := cl.Alloc("vm0")
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.ReleaseOwned("vm0", r); err != nil {
		t.Fatal(err)
	}
	r2, lat, err := cl.Alloc("vm0")
	if err != nil {
		t.Fatal(err)
	}
	if r2.Index() != r.Index() {
		t.Errorf("re-alloc granted rank %d, want sticky reuse of rank %d", r2.Index(), r.Index())
	}
	if lat >= 100*time.Millisecond {
		t.Errorf("same-owner reuse paid a reset (%v)", lat)
	}
}

// TestClusterParksOnlyWhenAllSaturated fills one shard: the next placement
// must route to the free shard instead of parking behind the full one, and
// only a fully saturated cluster returns ErrNoRanks.
func TestClusterParksOnlyWhenAllSaturated(t *testing.T) {
	cl := testCluster(t, 2, 2, clusterOpts())
	ra, _, err := cl.Alloc("a")
	if err != nil {
		t.Fatal(err)
	}
	rb, _, err := cl.Alloc("b")
	if err != nil {
		t.Fatalf("free capacity on the other shard, but alloc parked: %v", err)
	}
	if shardOf(t, cl, ra) == shardOf(t, cl, rb) {
		t.Errorf("both tenants on shard %d while the other shard sat free", shardOf(t, cl, ra))
	}
	if _, _, err := cl.Alloc("c"); !errors.Is(err, ErrNoRanks) {
		t.Errorf("saturated cluster alloc = %v, want ErrNoRanks", err)
	}
}

// TestClusterShardDeathFailover kills the shard holding a tenant: the
// tenant's next Acquire observes ErrRankFaulted (the failure domain died
// with its state), its next Alloc transparently lands on a surviving
// shard, and the merged counters stay monotonic across the death.
func TestClusterShardDeathFailover(t *testing.T) {
	cl := testCluster(t, 2, 2, clusterOpts())
	r, _, err := cl.Alloc("a")
	if err != nil {
		t.Fatal(err)
	}
	home := shardOf(t, cl, r)
	prev := cl.Metrics()
	if err := cl.KillShard(home); err != nil {
		t.Fatal(err)
	}
	if err := obs.CheckMonotonic(prev, cl.Metrics()); err != nil {
		t.Errorf("counters regressed across shard death: %v", err)
	}
	if !cl.pools[home].dead.Load() {
		t.Fatalf("shard %d not marked dead", home)
	}
	if _, _, err := cl.Acquire("a", r); !errors.Is(err, ErrRankFaulted) {
		t.Errorf("acquire on dead shard = %v, want ErrRankFaulted", err)
	}
	r2, _, err := cl.Alloc("a")
	if err != nil {
		t.Fatalf("failover alloc after shard death: %v", err)
	}
	if got := shardOf(t, cl, r2); got == home {
		t.Errorf("failover landed back on dead shard %d", got)
	}
	st := cl.Stats()
	if st.ShardDeaths != 1 {
		t.Errorf("shard deaths = %d, want 1", st.ShardDeaths)
	}
	if st.Failovers < 1 {
		t.Errorf("failovers = %d, want >= 1", st.Failovers)
	}
	if !st.Shards[home].Dead {
		t.Errorf("stats row for shard %d not marked dead", home)
	}
}

// TestClusterShardDeathRedistributesWaiter parks a waiter on a saturated
// cluster, then kills the shard it waits on: the cluster must re-place the
// woken waiter on a surviving shard, where it is granted as soon as that
// shard frees a rank.
func TestClusterShardDeathRedistributesWaiter(t *testing.T) {
	opts := clusterOpts()
	opts.Retries = 400
	opts.FailoverBackoff = time.Millisecond
	cl := testCluster(t, 2, 2, opts)
	ra, _, err := cl.Alloc("a")
	if err != nil {
		t.Fatal(err)
	}
	rb, _, err := cl.Alloc("b")
	if err != nil {
		t.Fatal(err)
	}
	byShard := map[int]*pim.Rank{shardOf(t, cl, ra): ra, shardOf(t, cl, rb): rb}
	type result struct {
		r   *pim.Rank
		err error
	}
	got := make(chan result, 1)
	go func() {
		r, _, err := cl.Alloc("c")
		got <- result{r, err}
	}()
	waitShard := -1
	deadline := time.Now().Add(2 * time.Second)
	for waitShard < 0 && time.Now().Before(deadline) {
		for i := range cl.pools {
			if cl.pools[i].Waiters() > 0 {
				waitShard = i
			}
		}
		time.Sleep(100 * time.Microsecond)
	}
	if waitShard < 0 {
		t.Fatal("waiter never parked")
	}
	if err := cl.KillShard(waitShard); err != nil {
		t.Fatal(err)
	}
	// The survivor is still full; free its rank so the redistributed
	// waiter can land.
	survivor := 1 - waitShard
	owner := "a"
	if byShard[survivor] == rb {
		owner = "b"
	}
	if err := cl.ReleaseOwned(owner, byShard[survivor]); err != nil {
		t.Fatal(err)
	}
	select {
	case res := <-got:
		if res.err != nil {
			t.Fatalf("redistributed waiter failed: %v", res.err)
		}
		if sh := shardOf(t, cl, res.r); sh != survivor {
			t.Errorf("waiter granted on shard %d, want surviving shard %d", sh, survivor)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("redistributed waiter never granted")
	}
	if st := cl.Stats(); st.Failovers < 1 {
		t.Errorf("failovers = %d, want >= 1 after waiter redistribution", st.Failovers)
	}
}

// TestClusterRebalanceMovesParkedTenant drives the cross-shard drain: a
// waiter piles up on the hot shard while the cold shard frees a rank;
// Rebalance must checkpoint the hot shard's resident, park the snapshot on
// the cold shard, grant the freed rank to the waiter, and the moved
// tenant's bytes must survive its restore on the new shard.
func TestClusterRebalanceMovesParkedTenant(t *testing.T) {
	opts := clusterOpts()
	opts.Retries = 400
	cl := testCluster(t, 2, 2, opts)
	ra, _, err := cl.Alloc("a")
	if err != nil {
		t.Fatal(err)
	}
	rb, _, err := cl.Alloc("b")
	if err != nil {
		t.Fatal(err)
	}
	owners := map[int]string{shardOf(t, cl, ra): "a", shardOf(t, cl, rb): "b"}
	ranks := map[string]*pim.Rank{"a": ra, "b": rb}
	for name, r := range ranks {
		if err := r.WriteDPU(0, 0, []byte(name)); err != nil {
			t.Fatal(err)
		}
	}
	type result struct {
		r   *pim.Rank
		err error
	}
	got := make(chan result, 1)
	go func() {
		r, _, err := cl.Alloc("c")
		got <- result{r, err}
	}()
	hot := -1
	deadline := time.Now().Add(2 * time.Second)
	for hot < 0 && time.Now().Before(deadline) {
		for i := range cl.pools {
			if cl.pools[i].Waiters() > 0 {
				hot = i
			}
		}
		time.Sleep(100 * time.Microsecond)
	}
	if hot < 0 {
		t.Fatal("waiter never parked")
	}
	cold := 1 - hot
	victim := owners[hot]
	if err := cl.ReleaseOwned(owners[cold], ranks[owners[cold]]); err != nil {
		t.Fatal(err)
	}
	if moved := cl.Rebalance(); moved != 1 {
		t.Fatalf("Rebalance moved %d tenants, want 1", moved)
	}
	select {
	case res := <-got:
		if res.err != nil {
			t.Fatalf("waiter failed after rebalance: %v", res.err)
		}
		if sh := shardOf(t, cl, res.r); sh != hot {
			t.Errorf("waiter granted on shard %d, want drained hot shard %d", sh, hot)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter never granted after rebalance")
	}
	// The victim resumes on the cold shard with its byte intact.
	rv, cost, err := cl.Acquire(victim, ranks[victim])
	if err != nil {
		t.Fatalf("moved tenant resume: %v", err)
	}
	if sh := shardOf(t, cl, rv); sh != cold {
		t.Errorf("moved tenant resumed on shard %d, want cold shard %d", sh, cold)
	}
	if cost.Restore <= 0 {
		t.Error("moved tenant's resume has no restore cost")
	}
	b := make([]byte, 1)
	if err := rv.ReadDPU(0, 0, b); err != nil {
		t.Fatal(err)
	}
	if b[0] != victim[0] {
		t.Errorf("moved tenant's byte = %q, want %q (rebalance moved bytes)", b[0], victim[0])
	}
	cl.EndOp(rv, 0)
	if st := cl.Stats(); st.Rebalances != 1 {
		t.Errorf("rebalances = %d, want 1", st.Rebalances)
	}
}

// TestClusterMetricsMergeShardTags asserts the cluster snapshot tags every
// shard counter with #shard<i> and that obs.Aggregate recovers the plain
// manager totals from the merged map.
func TestClusterMetricsMergeShardTags(t *testing.T) {
	cl := testCluster(t, 4, 2, clusterOpts())
	if _, _, err := cl.Alloc("a"); err != nil {
		t.Fatal(err)
	}
	m := cl.Metrics()
	tagged := 0
	for k := range m {
		if strings.Contains(k, "#shard") {
			tagged++
		}
	}
	if tagged == 0 {
		t.Fatal("no #shard-tagged counters in cluster metrics")
	}
	agg := obs.Aggregate(m)
	if agg["manager.allocs.granted"] != 1 {
		t.Errorf("aggregated grants = %d, want 1", agg["manager.allocs.granted"])
	}
	if agg["cluster.placements"] != 1 {
		t.Errorf("cluster.placements = %d, want 1", agg["cluster.placements"])
	}
}

// errKind folds an error into a comparable label for the lockstep property
// test below.
func errKind(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, ErrRankFaulted):
		return "faulted"
	case errors.Is(err, ErrNoRanks):
		return "noranks"
	case errors.Is(err, ErrNotAllocated):
		return "notalloc"
	case errors.Is(err, ErrRankBusy):
		return "busy"
	case errors.Is(err, ErrClosed):
		return "closed"
	default:
		return "error"
	}
}

// TestClusterSingleShardLockstep pins the N=1 case at the API level: an
// arbitrary operation trace applied in lockstep to a bare pool and to a
// one-pool Manager must produce identical grants, identical error classes,
// identical rank states and identical counters — the same keys, untagged —
// at every step, across all six RankManager methods.
func TestClusterSingleShardLockstep(t *testing.T) {
	opts := Options{
		SchedPolicy:  SchedSlice,
		Quantum:      4 * time.Millisecond,
		Retries:      4,
		RetryTimeout: time.Millisecond,
		Backoff:      1,
	}
	mach := testMachine(t, 2)
	ref := newPool(0, mach.Ranks(), mach.Model().ManagerAllocLatency, opts.withDefaults(), nil)
	cl := testCluster(t, 2, 1, opts)

	const owners = 3
	const steps = 200
	type tenant struct {
		mRank, cRank *pim.Rank
	}
	tenants := make([]tenant, owners)
	name := func(o int) string { return fmt.Sprintf("vm%d", o) }
	// A tiny deterministic LCG so both sides consume the same trace.
	state := uint64(0x9E3779B97F4A7C15)
	next := func(n int) int {
		state = state*6364136223846793005 + 1442695040888963407
		return int((state >> 33) % uint64(n))
	}
	for step := 0; step < steps; step++ {
		o := next(owners)
		tn := &tenants[o]
		switch next(5) {
		case 0: // alloc or acquire
			if tn.mRank == nil {
				mr, mwait, mck, merr := ref.alloc(name(o), allocHooks{})
				mlat := mwait + mck
				cr, clat, cerr := cl.Alloc(name(o))
				if errKind(merr) != errKind(cerr) || mlat != clat {
					t.Fatalf("step %d: alloc diverged: pool (%v, %v) vs manager (%v, %v)", step, mlat, merr, clat, cerr)
				}
				if merr == nil {
					if mr.Index() != cr.Index() {
						t.Fatalf("step %d: alloc granted rank %d vs %d", step, mr.Index(), cr.Index())
					}
					tn.mRank, tn.cRank = mr, cr
					ref.EndOp(mr, time.Millisecond)
					cl.EndOp(cr, time.Millisecond)
				}
				continue
			}
			mr, mc, merr := ref.Acquire(name(o), tn.mRank)
			cr, cc, cerr := cl.Acquire(name(o), tn.cRank)
			if errKind(merr) != errKind(cerr) || mc != cc {
				t.Fatalf("step %d: acquire diverged: pool (%+v, %v) vs manager (%+v, %v)", step, mc, merr, cc, cerr)
			}
			if merr != nil {
				if errors.Is(merr, ErrRankFaulted) {
					tn.mRank, tn.cRank = nil, nil
				}
				continue
			}
			if mr.Index() != cr.Index() {
				t.Fatalf("step %d: acquire landed on rank %d vs %d", step, mr.Index(), cr.Index())
			}
			tn.mRank, tn.cRank = mr, cr
			ref.EndOp(mr, 3*time.Millisecond)
			cl.EndOp(cr, 3*time.Millisecond)
		case 1: // release
			if tn.mRank == nil {
				continue
			}
			merr := ref.ReleaseOwned(name(o), tn.mRank)
			cerr := cl.ReleaseOwned(name(o), tn.cRank)
			if errKind(merr) != errKind(cerr) {
				t.Fatalf("step %d: release diverged: %v vs %v", step, merr, cerr)
			}
			tn.mRank, tn.cRank = nil, nil
		case 2: // migrate
			if tn.mRank == nil {
				continue
			}
			md, mlat, merr := ref.MigrateOwned(name(o), tn.mRank)
			cd, clat, cerr := cl.MigrateOwned(name(o), tn.cRank)
			if errKind(merr) != errKind(cerr) || mlat != clat {
				t.Fatalf("step %d: migrate diverged: (%v, %v) vs (%v, %v)", step, mlat, merr, clat, cerr)
			}
			if merr == nil {
				if md.Index() != cd.Index() {
					t.Fatalf("step %d: migrate landed on rank %d vs %d", step, md.Index(), cd.Index())
				}
				tn.mRank, tn.cRank = md, cd
			}
		case 3: // discard a preempted tenant's parked state
			md, cd := ref.Discard(name(o)), cl.Discard(name(o))
			if md != cd {
				t.Fatalf("step %d: discard diverged: %v vs %v", step, md, cd)
			}
			if md {
				tn.mRank, tn.cRank = nil, nil
			}
		default: // observer tick
			ref.ProcessResets()
			cl.ProcessResets()
			ref.RetryQuarantined()
			cl.RetryQuarantined()
		}
		ms, cs := ref.table(), cl.States()
		if len(ms) != len(cs) {
			t.Fatalf("step %d: state table length %d vs %d", step, len(ms), len(cs))
		}
		for i := range ms {
			if ms[i].state != cs[i] {
				t.Fatalf("step %d: rank %d state %v vs %v", step, i, ms[i].state, cs[i])
			}
		}
	}
	want, got := ref.reg.Snapshot(), cl.Metrics()
	if len(got) != len(want) {
		t.Errorf("manager reports %d counters, the pool %d", len(got), len(want))
	}
	for k, w := range want {
		if g, ok := got[k]; !ok || g != w {
			t.Errorf("counter %s = %d (present %v), want %d", k, g, ok, w)
		}
	}
}

// TestClusterStressNoLeaks churns 8 owners over a 3-shard cluster under
// the race detector with preemptive slicing, cross-shard migration and
// periodic rebalancing: every owner's byte must survive, and after the
// drain no shard may hold an ALLO rank, a parked waiter or an orphaned
// snapshot.
func TestClusterStressNoLeaks(t *testing.T) {
	const owners = 8
	const iters = 50
	cl := testCluster(t, 6, 3, Options{
		SchedPolicy:  SchedSlice,
		Quantum:      200 * time.Microsecond,
		Retries:      10,
		RetryTimeout: time.Millisecond,
		Backoff:      1,
	})
	var wg sync.WaitGroup
	errs := make(chan error, owners)
	for o := 0; o < owners; o++ {
		wg.Add(1)
		go func(o int) {
			defer wg.Done()
			name := fmt.Sprintf("vm%d", o)
			var rank *pim.Rank
			var has bool
			var seq byte
			for i := 0; i < iters; i++ {
				if rank == nil {
					r, _, err := cl.Alloc(name)
					if err != nil {
						continue // contention; try again next iteration
					}
					rank, has, seq = r, false, 0
				}
				r, _, err := cl.Acquire(name, rank)
				if err != nil {
					if errors.Is(err, ErrRankFaulted) {
						rank, has, seq = nil, false, 0
					}
					continue // transient resume exhaustion under contention
				}
				rank = r
				if has {
					var got [1]byte
					if err := r.ReadDPU(0, 0, got[:]); err != nil {
						errs <- err
						cl.EndOp(r, 0)
						return
					}
					if got[0] != seq {
						errs <- fmt.Errorf("%s: byte %#02x != %#02x after cluster rescheduling", name, got[0], seq)
						cl.EndOp(r, 0)
						return
					}
				}
				seq++
				if err := r.WriteDPU(0, 0, []byte{seq}); err != nil {
					errs <- err
					cl.EndOp(r, 0)
					return
				}
				has = true
				cl.EndOp(r, time.Millisecond)
				// Stay resident for a real-time beat so other owners'
				// scheduling passes can preempt this rank.
				time.Sleep(200 * time.Microsecond)
				switch {
				case i%11 == 10:
					if dst, _, err := cl.MigrateOwned(name, rank); err == nil {
						rank = dst
					}
				case i%9 == 8:
					_ = cl.ReleaseOwned(name, rank)
					rank, has, seq = nil, false, 0
				case i%7 == 6:
					cl.Rebalance()
				}
			}
			if rank != nil {
				_ = cl.ReleaseOwned(name, rank)
			}
			cl.Discard(name)
		}(o)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	cl.ProcessResets()
	for i := range cl.pools {
		sh := cl.pools[i]
		for j, e := range sh.table() {
			if e.state == StateALLO {
				t.Errorf("shard %d rank %d leaked ALLO after all owners drained", i, j)
			}
		}
		if n := sh.Waiters(); n != 0 {
			t.Errorf("shard %d leaked %d waiters", i, n)
		}
		if parked := sh.Parked(); len(parked) != 0 {
			t.Errorf("shard %d leaked snapshots: %v", i, parked)
		}
	}
	st := cl.Stats()
	if st.Placements == 0 {
		t.Error("8 owners never placed: the router did not run")
	}
	t.Logf("stress: placements=%d rebalances=%d preemptions=%d restores=%d",
		st.Placements, st.Rebalances, cl.Preemptions(), cl.SchedRestores())
}
