package vpim_test

import (
	"reflect"
	"testing"

	"repro/internal/conformance"
	"repro/internal/driver"
	"repro/internal/obs"
	"repro/internal/prim"
	"repro/internal/vmm"
)

// shortMatrixApps is the -short subset: the fastest PrIM applications,
// chosen so the full configuration matrix over them finishes well inside a
// minute while still covering every transfer style (bulk parallel push,
// serial retrieve, small inter-DPU reads, many tiny transfers).
var shortMatrixApps = []string{"RED", "SCAN-SSA", "SCAN-RSS", "SEL", "UNI", "MLP", "TRNS", "HST-S"}

func matrixApps(t *testing.T) []prim.App {
	t.Helper()
	if !testing.Short() && !raceEnabled {
		return prim.Apps()
	}
	apps := make([]prim.App, 0, len(shortMatrixApps))
	for _, n := range shortMatrixApps {
		app, err := prim.Lookup(n)
		if err != nil {
			t.Fatal(err)
		}
		apps = append(apps, app)
	}
	return apps
}

// TestConformanceMatrix runs the PrIM suite through every configuration of
// the conformance matrix (native reference, all Table 2 variants, both
// copy engines, vhost, parallel on/off, multi-VM oversubscription) and
// asserts bit-exact output agreement plus the counter and virtual-clock
// invariants.
func TestConformanceMatrix(t *testing.T) {
	if err := conformance.RunMatrix(matrixApps(t), t.Logf); err != nil {
		t.Fatal(err)
	}
}

// TestChaosSeedsReplayable runs each chaos seed twice and asserts the
// outcomes — per-application completion, error strings, digests, counter
// snapshots and the virtual clock — are identical: the seed is a complete
// one-line reproduction of the run.
func TestChaosSeedsReplayable(t *testing.T) {
	seeds := []int64{1, 2, 3, 7, 42}
	if testing.Short() || raceEnabled {
		seeds = seeds[:3]
	}
	for _, seed := range seeds {
		first, err := conformance.RunChaos(conformance.ChaosConfig{Seed: seed})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		second, err := conformance.RunChaos(conformance.ChaosConfig{Seed: seed})
		if err != nil {
			t.Fatalf("seed %d replay: %v", seed, err)
		}
		if !reflect.DeepEqual(first, second) {
			t.Fatalf("seed %d is not replayable:\n first: %+v\nsecond: %+v", seed, first, second)
		}
		completed := 0
		for _, ao := range first.Apps {
			if ao.Completed {
				completed++
			}
		}
		t.Logf("seed %d: %d/%d apps completed, clock %v", seed, completed, len(first.Apps), first.Clock)
	}
}

// TestConformanceTimeSliced boots twice as many VMs as the machine has
// ranks and runs each application in all of them concurrently under the
// manager's preemptive time-slicing scheduler: every VM's digest must be
// bit-identical to the native reference (preemption may only move time,
// never bytes), the scheduler must demonstrably preempt and restore, and
// teardown must leave no ALLO rank and no parked snapshot.
func TestConformanceTimeSliced(t *testing.T) {
	names := []string{"RED", "SEL", "TRNS", "SCAN-SSA"}
	if testing.Short() || raceEnabled {
		names = names[:2]
	}
	for _, n := range names {
		app, err := prim.Lookup(n)
		if err != nil {
			t.Fatal(err)
		}
		if err := conformance.RunTimeSliced(app, t.Logf); err != nil {
			t.Fatal(err)
		}
	}
}

// TestChaosManagerReplayable runs each manager chaos seed twice and
// asserts the outcomes — step log, counter snapshot, per-owner scheduling
// rows and pool statistics — are identical: the seed is a complete
// one-line reproduction of preemption racing rank death and restore
// failure (one pool), and of pool deaths, failovers, rebalances and
// cross-pool restores (three pools).
func TestChaosManagerReplayable(t *testing.T) {
	for _, sc := range []struct {
		name  string
		run   func(int64) (*conformance.ManagerOutcome, error)
		seeds []int64
		short int
	}{
		{"sched", conformance.RunSchedChaos, []int64{3, 11, 29, 47, 101}, 3},
		{"cluster", conformance.RunClusterChaos, []int64{5, 17, 41, 89}, 2},
	} {
		t.Run(sc.name, func(t *testing.T) {
			seeds := sc.seeds
			if testing.Short() || raceEnabled {
				seeds = seeds[:sc.short]
			}
			for _, seed := range seeds {
				first, err := sc.run(seed)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				second, err := sc.run(seed)
				if err != nil {
					t.Fatalf("seed %d replay: %v", seed, err)
				}
				if !reflect.DeepEqual(first, second) {
					t.Fatalf("seed %d is not replayable:\n first: %+v\nsecond: %+v", seed, first, second)
				}
				m := obs.Aggregate(first.Metrics) // sums the per-pool counters
				t.Logf("seed %d: %d steps logged, preemptions=%d restores=%d quarantines=%d rebalances=%d failovers=%d pool deaths=%d",
					seed, len(first.Log), m["manager.preemptions"], m["manager.restores"], m["manager.quarantines"],
					first.Stats.Rebalances, first.Stats.Failovers, first.Stats.ShardDeaths)
			}
		})
	}
}

// TestChaosPipelineReplayable runs chaos seeds with the pipelined
// submission window enabled: corrupted chains now land mid-window, and the
// drain must fail only the victim chain. The outcome — completions, error
// strings, digests, counters, clock — must still replay exactly.
func TestChaosPipelineReplayable(t *testing.T) {
	seeds := []int64{5, 13, 42}
	if testing.Short() || raceEnabled {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		first, err := conformance.RunChaos(conformance.ChaosConfig{Seed: seed, Pipeline: true})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		second, err := conformance.RunChaos(conformance.ChaosConfig{Seed: seed, Pipeline: true})
		if err != nil {
			t.Fatalf("seed %d replay: %v", seed, err)
		}
		if !reflect.DeepEqual(first, second) {
			t.Fatalf("seed %d is not replayable under pipelining:\n first: %+v\nsecond: %+v", seed, first, second)
		}
		completed := 0
		for _, ao := range first.Apps {
			if ao.Completed {
				completed++
			}
		}
		t.Logf("seed %d: %d/%d apps completed, suppressed=%d coalesced=%d",
			seed, completed, len(first.Apps),
			first.Counters["kvm.exits.suppressed"], first.Counters["kvm.irqs.coalesced"])
	}
}

// TestPipelineFaultIsolation: a chain fault rejecting exactly one staged
// chain mid-window must fail only that chain — the failure surfaces at the
// next synchronization point, every other staged write lands intact, and
// the device stays usable.
func TestPipelineFaultIsolation(t *testing.T) {
	if err := conformance.PipelineFaultProbe(); err != nil {
		t.Fatal(err)
	}
}

// TestPipelineSavingsReconcile runs write-heavy PrIM applications under the
// full variant with and without the pipelined submission window and
// reconciles the accounting exactly: digests must be bit-identical, the
// pipelined run must take strictly fewer notify exits and IRQs, and the
// delta must equal the suppressed/coalesced counters to the unit.
func TestPipelineSavingsReconcile(t *testing.T) {
	apps := []string{"SCAN-SSA", "TRNS"}
	if testing.Short() || raceEnabled {
		apps = apps[:1]
	}
	for _, name := range apps {
		syncOpts := vmm.Full()
		pipeOpts := vmm.Full()
		pipeOpts.Pipeline = true
		syncDg, syncSnap, err := conformance.RunCell(name, syncOpts)
		if err != nil {
			t.Fatalf("%s sync: %v", name, err)
		}
		pipeDg, pipeSnap, err := conformance.RunCell(name, pipeOpts)
		if err != nil {
			t.Fatalf("%s pipelined: %v", name, err)
		}
		if syncDg != pipeDg {
			t.Fatalf("%s: pipelined digest %v != synchronous digest %v", name, pipeDg, syncDg)
		}
		suppressed := pipeSnap["kvm.exits.suppressed"]
		coalesced := pipeSnap["kvm.irqs.coalesced"]
		if suppressed == 0 {
			t.Fatalf("%s: pipelining suppressed no notifications", name)
		}
		if pn, sn := pipeSnap["kvm.exits.notify"], syncSnap["kvm.exits.notify"]; pn >= sn {
			t.Fatalf("%s: pipelined notify exits %d not below synchronous %d", name, pn, sn)
		} else if sn-pn != suppressed {
			t.Fatalf("%s: notify delta %d != kvm.exits.suppressed %d", name, sn-pn, suppressed)
		}
		if pi, si := pipeSnap["kvm.irqs"], syncSnap["kvm.irqs"]; pi >= si {
			t.Fatalf("%s: pipelined IRQs %d not below synchronous %d", name, pi, si)
		} else if si-pi != coalesced {
			t.Fatalf("%s: IRQ delta %d != kvm.irqs.coalesced %d", name, si-pi, coalesced)
		}
		t.Logf("%s: notify %d->%d irqs %d->%d (suppressed=%d coalesced=%d)",
			name, syncSnap["kvm.exits.notify"], pipeSnap["kvm.exits.notify"],
			syncSnap["kvm.irqs"], pipeSnap["kvm.irqs"], suppressed, coalesced)
	}
}

// TestChaosCatchesPlantedBatchClipBug proves the harness detects silent
// corruption: the probe passes against the shipping driver and fails when
// the historical batch-clipping bug is re-introduced via the test hook.
func TestChaosCatchesPlantedBatchClipBug(t *testing.T) {
	if err := conformance.BatchClipProbe(); err != nil {
		t.Fatalf("probe failed against the shipping driver: %v", err)
	}
	driver.TestHookBatchClip = true
	defer func() { driver.TestHookBatchClip = false }()
	err := conformance.BatchClipProbe()
	if err == nil {
		t.Fatal("probe did not detect the planted batch-clipping bug")
	}
	t.Logf("planted bug detected: %v", err)
}
