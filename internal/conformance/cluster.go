// Cluster conformance cell: sharding the rank pool behind the placement
// router must be invisible to the guest. The cell runs one application on a
// VM whose manager splits its ranks into N pools and differentially
// compares it against a single-pool twin: the readback digest must be
// bit-identical and the manager.* counter totals — recovered by summing the
// per-pool snapshots the manager tags with #shard<i> — must reconcile
// exactly.
package conformance

import (
	"fmt"
	"strings"

	"repro/internal/obs"
	"repro/internal/prim"
	"repro/internal/vmm"
)

// managerTotals strips the cluster's own routing counters from an
// aggregated snapshot, leaving only the manager.* totals that a plain
// single-manager snapshot is directly comparable against.
func managerTotals(agg map[string]int64) map[string]int64 {
	out := make(map[string]int64, len(agg))
	for k, v := range agg {
		if strings.HasPrefix(k, "cluster.") {
			continue
		}
		out[k] = v
	}
	return out
}

// diffCounters asserts got == want key for key in both directions (a
// missing key counts as zero).
func diffCounters(label string, got, want map[string]int64) error {
	for k, w := range want {
		if g := got[k]; g != w {
			return fmt.Errorf("%s: counter %s = %d, want %d", label, k, g, w)
		}
	}
	for k, g := range got {
		if _, ok := want[k]; !ok && g != 0 {
			return fmt.Errorf("%s: unexpected counter %s = %d", label, k, g)
		}
	}
	return nil
}

// runClusterCell executes app on a VM backed by a cfg.ClusterShards-shard
// cluster and reconciles it against a single-manager twin.
func runClusterCell(app prim.App, cfg Config) (runResult, error) {
	opts := managerOpts()
	opts.Shards = cfg.ClusterShards
	mach, cl, err := newMachineWith(opts)
	if err != nil {
		return runResult{}, err
	}
	vm, err := vmm.NewVM(mach, cl, vmm.Config{
		Name:    "conf",
		VCPUs:   16,
		VUPMEMs: confRanks,
		Options: cfg.Opts,
	})
	if err != nil {
		return runResult{}, err
	}
	dg, err := RunApp(vm, app, params())
	if err != nil {
		return runResult{}, err
	}

	// Single-pool twin: identical machine, identical VM, unsharded manager.
	vm2, mgr2, err := newVM("conf", cfg.Opts, confRanks)
	if err != nil {
		return runResult{}, err
	}
	dg2, err := RunApp(vm2, app, params())
	if err != nil {
		return runResult{}, fmt.Errorf("single-manager twin: %w", err)
	}
	if dg != dg2 {
		return runResult{}, fmt.Errorf("cluster digest %v differs from single-manager twin %v (sharding visible to guest)", dg, dg2)
	}
	got := managerTotals(obs.Aggregate(cl.Metrics()))
	want := obs.Aggregate(mgr2.Metrics())
	if err := diffCounters("cluster vs single-manager", got, want); err != nil {
		return runResult{}, err
	}

	// Routing sanity: the cluster placed every device allocation, and the
	// per-shard placement counters sum to the cluster total.
	st := cl.Stats()
	if st.Placements < 1 {
		return runResult{}, fmt.Errorf("cluster ran app with %d placements", st.Placements)
	}
	var perShard int64
	for _, si := range st.Shards {
		perShard += si.Placements
	}
	if perShard != st.Placements {
		return runResult{}, fmt.Errorf("per-shard placements sum %d != cluster total %d", perShard, st.Placements)
	}

	res := runResult{
		digest:   dg,
		total:    vm.Timeline().Now(),
		counters: obs.Aggregate(vm.Metrics()),
	}
	if err := CheckCounters(res.counters, cfg.Opts); err != nil {
		return runResult{}, err
	}
	return res, nil
}
