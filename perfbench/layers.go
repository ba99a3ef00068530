package main

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/trace"
)

// selfTolerance bounds how far the self times of one traced iteration may
// sum from its wall time, as a share of it. The spans of an iteration nest
// inside its root, so the two agree up to float rounding unless a call
// escaped its parent's interval (work moved outside the measured boundary).
const selfTolerance = 0.005

// traced runs the workload three ways in one process: untraced, traced on
// the VM stack, and traced on its native twin. Each gets a share of the
// budget. Untraced and traced iterations must take the same virtual time
// and do the same counted work; the traced numbers must reconcile with the
// counters the program exports.
func traced(w workload, seed int64, budget time.Duration, opt options, st *runState) (map[string]metric, error) {
	pu, err := measureUntraced(w, seed, budget*2/5, opt, st)
	if err != nil {
		return nil, err
	}

	tr := newTracer()
	inst, err := w.setup(seed, tr, opt.corrupt)
	if err != nil {
		return nil, fmt.Errorf("traced setup: %w", err)
	}
	warmUp(inst, st)
	pt := measure(inst, budget*2/5, tr, pu.virt, st)

	// The native twin: one pass per iteration, its virtual time constant.
	ntr := newTracer()
	var nativeVirt, nativeDPU time.Duration
	deadline := time.Now().Add(budget / 5)
	for it := 0; it < 1 || time.Now().Before(deadline); it++ {
		st.attempted++
		root := ntr.beginIter(it)
		virt, dpu, err := inst.native(ntr)
		ntr.endIter(root)
		if err == nil && it > 0 && (virt != nativeVirt || dpu != nativeDPU) {
			err = fmt.Errorf("virtual time %v, expected %v", virt, nativeVirt)
		}
		if err != nil {
			st.fail("native pass %d: %v", it, err)
			continue
		}
		nativeVirt, nativeDPU = virt, dpu
	}

	lt, err := tr.analyse()
	if err != nil {
		return nil, fmt.Errorf("traced run: %w", err)
	}
	nt, err := ntr.analyse()
	if err != nil {
		return nil, fmt.Errorf("native traced run: %w", err)
	}
	reconcile(pu, pt, lt, st)
	st.info["samples"] = pt.iters()
	st.info["untraced_samples"] = pu.iters()
	st.info["native_passes"] = nt.iters
	st.info["self_time_mismatch"] = lt.maxMismatch
	st.info["self_time_tolerance"] = selfTolerance
	return layerMetrics(pu, pt, lt, nt, nativeDPU), nil
}

// measureUntraced sets up an undecorated instance, warms it up and measures
// it; the instance is dropped before the traced one is built.
func measureUntraced(w workload, seed int64, budget time.Duration, opt options, st *runState) (*phase, error) {
	inst, err := w.setup(seed, nil, opt.corrupt)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	warmUp(inst, st)
	return measure(inst, budget, nil, 0, st), nil
}

// deterministic lists the counters that depend only on the inputs; they
// must advance by the same amount per iteration with and without tracing.
var deterministic = []string{
	"frontend.messages", "frontend.cache.lookups", "frontend.cache.hits",
	"frontend.batch.appends", "frontend.batch.flushes", "backend.deser.rows",
	"backend.deser.pages", "backend.batch.records", "kvm.exits",
	"manager.allocs.granted", "manager.releases", "manager.preemptions",
	"manager.restores", "manager.resets",
}

// reconcile checks the traced run against itself and against the untraced
// run; every mismatch counts as a failure.
func reconcile(pu, pt *phase, lt *layerTotals, st *runState) {
	nu, n := int64(pu.iters()), int64(pt.iters())
	if nu == 0 || n == 0 {
		st.fail("reconcile: an empty phase (%d untraced, %d traced iterations)", nu, n)
		return
	}
	for _, k := range deterministic {
		if pu.counters[k]*n != pt.counters[k]*nu {
			st.fail("reconcile: %s advances %d over %d untraced iterations but %d over %d traced", k, pu.counters[k], nu, pt.counters[k], n)
		}
	}
	for k, v := range pt.tracker {
		if pu.tracker[k]*time.Duration(n) != v*time.Duration(nu) {
			st.fail("reconcile: virtual %s differs between the untraced and the traced run", k)
		}
	}
	if lt.iters != int(n) {
		st.fail("reconcile: %d iteration spans for %d traced iterations", lt.iters, n)
	}
	if lt.maxMismatch > selfTolerance {
		st.fail("reconcile: span self times miss an iteration's wall time by %.2f%% (tolerance %.2f%%)", 100*lt.maxMismatch, 100*selfTolerance)
	}
	if lt.orphans != 0 {
		st.fail("reconcile: %d manager calls outside any device or environment span", lt.orphans)
	}
	// Manager calls seen at the boundary against the manager's counters: a
	// grant is an Alloc or the allocation that resumes a preempted owner.
	c := pt.counters
	if got, want := c["manager.allocs.granted"], lt.count[kMgrAlloc]+lt.restores; got != want {
		st.fail("reconcile: manager granted %d ranks, boundary saw %d allocs + %d resumes", got, lt.count[kMgrAlloc], lt.restores)
	}
	if got := c["manager.restores"]; got != lt.restores {
		st.fail("reconcile: manager restored %d times, boundary saw %d restoring acquires", got, lt.restores)
	}
	if got := c["manager.releases"]; got != lt.count[kMgrRelease] {
		st.fail("reconcile: manager released %d times, boundary saw %d releases", got, lt.count[kMgrRelease])
	}
	// Driver counters against the device calls: the backend decodes at most
	// one DPU row per row a caller asked for (batching and the prefetch
	// cache only merge or absorb rows), every cache lookup is a requested
	// read row, and device calls that move data send messages.
	rows := lt.rows[kWriteRank] + lt.rows[kReadRank]
	if got := c["backend.deser.rows"]; got > rows {
		st.fail("reconcile: backend decoded %d rows, callers asked for %d", got, rows)
	}
	if got := c["frontend.cache.lookups"]; got > lt.rows[kReadRank] {
		st.fail("reconcile: driver made %d cache lookups for %d requested read rows", got, lt.rows[kReadRank])
	}
	if ops := deviceOps(lt); ops > 0 && c["frontend.messages"] == 0 {
		st.fail("reconcile: %d device calls sent no message", ops)
	}
}

func deviceOps(lt *layerTotals) int64 {
	var n int64
	for k := kWriteRank; k <= kDevRelease; k++ {
		n += lt.count[k]
	}
	return n
}

func prefixSum(c map[string]int64, prefix, suffix string) int64 {
	var n int64
	for k, v := range c {
		if strings.HasPrefix(k, prefix) && strings.HasSuffix(k, suffix) {
			n += v
		}
	}
	return n
}

// layerMetrics renders the per-layer split, every value per iteration.
func layerMetrics(pu, pt *phase, lt, nt *layerTotals, nativeDPU time.Duration) map[string]metric {
	n := float64(pt.iters())
	nn := float64(nt.iters)
	out := make(map[string]metric)
	put := func(name string, v float64, unit string) { out[name] = metric{v, unit} }
	perMs := func(ns, iters float64) float64 { return ratio(ns/1e6, iters) }
	per := func(v int64) float64 { return ratio(float64(v), n) }

	put("prim.self_ms", perMs(lt.self[kApp], n), "ms")
	put("env.alloc_set_ms", perMs(lt.self[kAllocSet], n), "ms")
	put("env.alloc_buffer_ms", perMs(lt.self[kAllocBuffer], n), "ms")
	put("env.setup_ms", lt.setupEnv/1e6, "ms")

	var devSelf float64
	for k := kWriteRank; k <= kDevRelease; k++ {
		devSelf += lt.self[k]
	}
	ops := deviceOps(lt)
	var reqBytes int64
	for k := kWriteRank; k <= kDevRelease; k++ {
		reqBytes += lt.bytes[k]
	}
	put("vdev.W-rank_ms", perMs(lt.self[kWriteRank], n), "ms")
	put("vdev.R-rank_ms", perMs(lt.self[kReadRank], n), "ms")
	put("vdev.CI_ms", perMs(lt.self[kCI]+lt.self[kLaunch], n), "ms")
	put("vdev.release_ms", perMs(lt.self[kDevRelease], n), "ms")
	put("vdev.self_ms", perMs(devSelf, n), "ms")
	put("vdev.ops", per(ops), "count")
	put("vdev.bytes", per(reqBytes), "bytes")
	put("vdev.us_per_op", ratio(devSelf/1e3, float64(ops)), "us")
	put("vdev.W-rank_ns_per_byte", ratio(lt.self[kWriteRank], float64(lt.bytes[kWriteRank])), "ns/B")
	put("vdev.R-rank_ns_per_byte", ratio(lt.self[kReadRank], float64(lt.bytes[kReadRank])), "ns/B")

	put("pim.W-rank_ms", perMs(nt.self[kWriteRank], nn), "ms")
	put("pim.R-rank_ms", perMs(nt.self[kReadRank], nn), "ms")
	put("pim.CI_ms", perMs(nt.self[kCI]+nt.self[kLaunch], nn), "ms")
	put("pim.host_ms_per_virt_dpu_ms", ratio(perMs(nt.self[kLaunch], nn), ms(nativeDPU)), "ratio")

	c := pt.counters
	acquires := lt.count[kMgrAcquire]
	put("manager.alloc_ms", perMs(lt.self[kMgrAlloc], n), "ms")
	put("manager.acquire_ms", perMs(lt.self[kMgrAcquire]+lt.self[kMgrEndOp], n), "ms")
	put("manager.switch_ms", perMs(lt.switchSelf, n), "ms")
	put("manager.release_ms", perMs(lt.self[kMgrRelease], n), "ms")
	put("manager.acquires", per(acquires), "count")
	put("manager.switch_ratio", ratio(float64(lt.switches), float64(acquires)), "ratio")
	put("manager.virt_wait_ms", ratio(ms(lt.virtWait), n), "virt-ms")
	put("manager.preemptions", per(c["manager.preemptions"]), "count")
	put("manager.restores", per(c["manager.restores"]), "count")
	put("manager.resets", per(c["manager.resets"]), "count")

	messages := c["frontend.messages"]
	put("driver.messages", per(messages), "count")
	put("driver.cache_hit_ratio", ratio(float64(c["frontend.cache.hits"]), float64(c["frontend.cache.lookups"])), "ratio")
	put("driver.batch_records_per_flush", ratio(float64(c["frontend.batch.appends"]), float64(c["frontend.batch.flushes"])), "ratio")
	put("driver.bcast_rows_saved", per(c["frontend.bcast.rows_saved"]), "count")

	chains := prefixSum(c, "virtio.", ".chains")
	put("virtio.chains", per(chains), "count")
	put("virtio.descs_per_chain", ratio(float64(prefixSum(c, "virtio.", ".descs")), float64(chains)), "ratio")
	put("kvm.exits", per(c["kvm.exits"]), "count")
	put("kvm.exits_per_message", ratio(float64(c["kvm.exits"]), float64(messages)), "ratio")

	copied := prefixSum(c, "backend.copy.bytes.", "")
	put("backend.deser_rows", per(c["backend.deser.rows"]), "count")
	put("backend.deser_pages", per(c["backend.deser.pages"]), "count")
	put("backend.copy_bytes", per(copied), "bytes")
	put("backend.copy_per_requested_byte", ratio(float64(copied), float64(reqBytes)), "ratio")
	put("backend.workers_busy", per(c["backend.workers.busy"]), "count")
	put("hostmem.snapshot_swaps", per(c["hostmem.snapshot.swaps"]), "count")

	for _, cat := range []string{
		trace.PhaseCPUDPU, trace.PhaseDPU, trace.PhaseInterDPU, trace.PhaseDPUCPU,
		trace.OpWriteRank, trace.OpReadRank, trace.OpCI, trace.OpAlloc,
		trace.OpCheckpoint, trace.OpRestore,
		trace.StepPage, trace.StepSer, trace.StepInt, trace.StepDeser, trace.StepTData,
	} {
		name := cat[strings.IndexByte(cat, ':')+1:]
		put("virt."+name+"_ms", ratio(ms(pt.tracker[cat]), n), "virt-ms")
	}

	nu := float64(pu.iters())
	put("go.gc_cycles", ratio(float64(pu.mem.NumGC), nu), "count")
	put("go.gc_pause_ms", ratio(float64(pu.mem.PauseTotalNs)/1e6, nu), "ms")
	put("go.allocs", ratio(float64(pu.mem.Mallocs), nu), "count")

	put("trace.overhead_ratio", ratio(quantileOf(pt.samples), quantileOf(pu.samples))-1, "ratio")
	return out
}

// quantileOf is the median of host samples in ms (0 when empty).
func quantileOf(samples []time.Duration) float64 {
	if len(samples) == 0 {
		return 0
	}
	return quantile(sortedMs(samples), 50)
}
