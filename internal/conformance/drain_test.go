package conformance

import (
	"strings"
	"testing"
	"time"

	"repro/internal/manager"
	"repro/internal/pim"
)

// oneRankManager builds a manager over a one-rank machine.
func oneRankManager(t *testing.T, opts manager.Options) *manager.Manager {
	t.Helper()
	mach, err := pim.NewMachine(pim.MachineConfig{
		Ranks: 1,
		Rank:  pim.RankConfig{DPUs: 1, MRAMBytes: 1 << 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	mgr := manager.New(mach, opts)
	t.Cleanup(mgr.Close)
	return mgr
}

// wantUndrained requires checkDrained to reject mgr with an error naming
// the planted violation.
func wantUndrained(t *testing.T, mgr *manager.Manager, violation string) {
	t.Helper()
	err := checkDrained(mgr)
	if err == nil {
		t.Fatalf("checkDrained passed with %s planted", violation)
	}
	if !strings.Contains(err.Error(), violation) {
		t.Fatalf("checkDrained = %q, want it to name %q", err, violation)
	}
}

// TestCheckDrainedCatchesPlantedLeaks proves the drain check every chaos and
// time-slicing run ends on can fail: on a real manager it rejects a rank
// left ALLO, a preempted owner's parked snapshot and a parked waiter, and
// passes once everything has been given back.
func TestCheckDrainedCatchesPlantedLeaks(t *testing.T) {
	mgr := oneRankManager(t, manager.Options{
		SchedPolicy:  manager.SchedSlice,
		Quantum:      time.Nanosecond,
		Retries:      6,
		RetryTimeout: time.Millisecond,
		Backoff:      1,
	})
	if err := checkDrained(mgr); err != nil {
		t.Fatalf("fresh manager: %v", err)
	}

	a, _, err := mgr.Alloc("a")
	if err != nil {
		t.Fatal(err)
	}
	mgr.EndOp(a, time.Millisecond)
	wantUndrained(t, mgr, "still ALLO")

	// b's allocation preempts a past its quantum; once b leaves, a's
	// snapshot is still parked with no rank under it.
	b, _, err := mgr.Alloc("b")
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.ReleaseOwned("b", b); err != nil {
		t.Fatal(err)
	}
	if parked := mgr.Parked(); len(parked) != 1 || parked[0] != "a" {
		t.Fatalf("parked = %v, want [a]", parked)
	}
	wantUndrained(t, mgr, "parked: [a]")

	// a resumes and leaves: the manager is drained.
	ra, _, err := mgr.Acquire("a", a)
	if err != nil {
		t.Fatal(err)
	}
	mgr.EndOp(ra, 0)
	if err := mgr.ReleaseOwned("a", ra); err != nil {
		t.Fatal(err)
	}
	mgr.ProcessResets()
	if err := checkDrained(mgr); err != nil {
		t.Fatalf("drained manager: %v", err)
	}
}

// TestCheckDrainedCatchesParkedWaiter plants an allocation parked behind
// the only rank, which is quarantined (so no rank is ALLO): checkDrained
// must report the waiter until the observer revives the rank and the
// waiter is served.
func TestCheckDrainedCatchesParkedWaiter(t *testing.T) {
	mgr := oneRankManager(t, manager.Options{Retries: 1, RetryTimeout: 10 * time.Second})
	mgr.SetFaultPolicy(&manager.FaultPolicy{RankDead: func(int) bool { return true }})
	granted := make(chan error, 1)
	go func() {
		r, _, err := mgr.Alloc("w")
		if err == nil {
			err = mgr.ReleaseOwned("w", r)
		}
		granted <- err
	}()
	for deadline := time.Now().Add(5 * time.Second); mgr.Waiters() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("allocation never parked behind the dead rank")
		}
	}
	wantUndrained(t, mgr, "waiters still parked")

	mgr.SetFaultPolicy(nil)
	if n := mgr.RetryQuarantined(); n != 1 {
		t.Fatalf("RetryQuarantined revived %d ranks, want 1", n)
	}
	if err := <-granted; err != nil {
		t.Fatalf("parked allocation after revival: %v", err)
	}
	mgr.ProcessResets()
	if err := checkDrained(mgr); err != nil {
		t.Fatalf("drained manager: %v", err)
	}
}
