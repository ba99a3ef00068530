// Oversubscribed time-slicing conformance: more VMs than physical ranks,
// with the manager's preemptive scheduler (SchedSlice) multiplexing ranks
// via checkpoint/restore. The contract under test is the scheduler's core
// promise — preemption may only move time, never bytes: every VM's readback
// digest must stay bit-identical to its native reference no matter how
// often its tenant state was checkpointed off one rank and restored onto
// another.
package conformance

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/manager"
	"repro/internal/native"
	"repro/internal/obs"
	"repro/internal/prim"
	"repro/internal/sdk"
	"repro/internal/vmm"
)

// schedManagerOpts is the retry-bounded manager tuned for time-slicing
// runs: a sub-millisecond quantum so short conformance workloads still
// preempt, and enough poll attempts for the aging path (two deferral
// passes) to always reach a grant.
func schedManagerOpts() manager.Options {
	return manager.Options{
		Retries:      8,
		RetryTimeout: time.Millisecond,
		Backoff:      1.5,
		SchedPolicy:  manager.SchedSlice,
		Quantum:      500 * time.Microsecond,
	}
}

// resident is one competitor VM occupying a rank before the test VM boots.
type resident struct {
	vm      *vmm.VM
	set     *sdk.Set
	pattern []byte
}

const residentBytes = 4096

// runTimeSliceCell is the matrix's "vPIM-sched" configuration: two resident
// VMs first occupy both physical ranks and write a known byte pattern; the
// test VM then attaches both of its devices — possible only by preempting
// the residents — and runs the application. Afterwards the residents page
// back in (restore onto whatever rank frees up) and their patterns must
// have survived the round trip through a parked snapshot.
func runTimeSliceCell(app prim.App) (runResult, error) {
	mach, mgr, err := newMachineWith(schedManagerOpts())
	if err != nil {
		return runResult{}, err
	}
	residents := make([]*resident, confRanks)
	for i := range residents {
		rvm, err := vmm.NewVM(mach, mgr, vmm.Config{
			Name: fmt.Sprintf("res%d", i), VCPUs: 2, VUPMEMs: 1, Options: vmm.Naive(),
		})
		if err != nil {
			return runResult{}, fmt.Errorf("boot resident %d: %w", i, err)
		}
		set, err := rvm.AllocSet(confDPUs)
		if err != nil {
			return runResult{}, fmt.Errorf("resident %d booking: %w", i, err)
		}
		buf, err := rvm.AllocBuffer(residentBytes)
		if err != nil {
			return runResult{}, err
		}
		pattern := make([]byte, residentBytes)
		for j := range pattern {
			pattern[j] = byte((j*31 + 7*i) ^ (j >> 8))
		}
		copy(buf.Data, pattern)
		if err := set.CopyToMRAM(0, 0, buf, residentBytes); err != nil {
			return runResult{}, fmt.Errorf("resident %d write: %w", i, err)
		}
		residents[i] = &resident{vm: rvm, set: set, pattern: pattern}
	}

	vm, err := vmm.NewVM(mach, mgr, vmm.Config{
		Name: "conf", VCPUs: 16, VUPMEMs: confRanks, Options: vmm.Full(),
	})
	if err != nil {
		return runResult{}, err
	}
	dg, err := RunApp(vm, app, params())
	if err != nil {
		return runResult{}, err
	}
	if got := mgr.Preemptions(); got < int64(confRanks) {
		return runResult{}, fmt.Errorf("vPIM-sched: test VM attached %d devices over occupied ranks with only %d preemptions", confRanks, got)
	}

	// The residents resume: their next operation restores the parked
	// snapshot onto a free rank. Bytes written before the preemption must
	// read back unchanged.
	for i, res := range residents {
		rbuf, err := res.vm.AllocBuffer(residentBytes)
		if err != nil {
			return runResult{}, err
		}
		if err := res.set.CopyFromMRAM(0, 0, rbuf, residentBytes); err != nil {
			return runResult{}, fmt.Errorf("resident %d readback: %w", i, err)
		}
		for j := range res.pattern {
			if rbuf.Data[j] != res.pattern[j] {
				return runResult{}, fmt.Errorf("vPIM-sched: resident %d byte %d changed across preemption: %#02x != %#02x",
					i, j, rbuf.Data[j], res.pattern[j])
			}
		}
	}

	res := runResult{
		digest:   dg,
		total:    vm.Timeline().Now(),
		counters: obs.Aggregate(vm.Metrics()),
	}
	if err := CheckCounters(res.counters, vmm.Full()); err != nil {
		return runResult{}, err
	}
	return res, nil
}

// RunTimeSliced boots twice as many single-device VMs as the machine has
// ranks and runs app in all of them concurrently under the time-slicing
// manager. Every VM's digest must equal the native reference at the same
// geometry, the scheduler must actually have preempted and restored, the
// manager's counters must stay monotone, and after teardown no rank stays
// ALLO and no snapshot stays parked.
func RunTimeSliced(app prim.App, report func(format string, args ...any)) error {
	if report == nil {
		report = func(string, ...any) {}
	}
	// Single-device VMs span one rank, so both the reference and the
	// virtualized runs size the application at one rank's DPUs.
	p := prim.Params{DPUs: confDPUs, Scale: 1, Seed: 1}
	refMach, refMgr, err := newMachine()
	if err != nil {
		return err
	}
	ref, err := RunApp(native.NewEnv(refMach, refMgr, 16<<30), app, p)
	if err != nil {
		return fmt.Errorf("native reference: %w", err)
	}

	mach, mgr, err := newMachineWith(schedManagerOpts())
	if err != nil {
		return err
	}
	before := mgr.Metrics()
	const nVMs = 2 * confRanks
	vms := make([]*vmm.VM, nVMs)
	for i := range vms {
		vms[i], err = vmm.NewVM(mach, mgr, vmm.Config{
			Name: fmt.Sprintf("ts%d", i), VCPUs: 4, VUPMEMs: 1, Options: vmm.Full(),
		})
		if err != nil {
			return fmt.Errorf("boot ts%d: %w", i, err)
		}
	}
	digests := make([]Digest, nVMs)
	errs := make([]error, nVMs)
	var wg sync.WaitGroup
	for i := range vms {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			digests[i], errs[i] = RunApp(vms[i], app, p)
		}(i)
	}
	wg.Wait()
	for i := range vms {
		if errs[i] != nil {
			return fmt.Errorf("timesliced %s vm %d: %w", app.Name, i, errs[i])
		}
		if digests[i] != ref {
			return fmt.Errorf("timesliced %s vm %d: digest %v disagrees with native reference %v (preemption moved bytes)",
				app.Name, i, digests[i], ref)
		}
	}
	report("timesliced %-8s %d VMs / %d ranks: preemptions=%d restores=%d digest=%v\n",
		app.Name, nVMs, confRanks, mgr.Preemptions(), mgr.SchedRestores(), ref)

	if err := obs.CheckMonotonic(before, mgr.Metrics()); err != nil {
		return fmt.Errorf("timesliced %s: %w", app.Name, err)
	}
	if mgr.Preemptions() == 0 {
		return fmt.Errorf("timesliced %s: %d VMs shared %d ranks without a single preemption", app.Name, nVMs, confRanks)
	}
	if mgr.SchedRestores() == 0 {
		return fmt.Errorf("timesliced %s: preempted tenants never restored", app.Name)
	}

	// Teardown: every device detaches, the observer erases released ranks,
	// and the scheduler must converge — no leaked ALLO rank, no parked
	// snapshot, no waiter.
	for i, vm := range vms {
		for _, f := range vm.Frontends() {
			if err := f.Detach(vm.Timeline()); err != nil {
				return fmt.Errorf("timesliced %s: detach vm %d: %w", app.Name, i, err)
			}
		}
	}
	mgr.ProcessResets()
	mgr.RetryQuarantined()
	if err := checkDrained(mgr); err != nil {
		return fmt.Errorf("timesliced %s: after teardown: %w", app.Name, err)
	}
	return nil
}
