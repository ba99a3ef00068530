package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"
	"time"

	"repro/internal/hostmem"
	"repro/internal/manager"
	"repro/internal/native"
	"repro/internal/obs"
	"repro/internal/pim"
	"repro/internal/prim"
	"repro/internal/sdk"
	"repro/internal/trace"
	"repro/internal/vmm"
)

// workload is one closed-loop input set: a single goroutine runs one
// iteration after another, each starting when the previous one returned.
type workload struct {
	name string
	// why records what the workload exercises and why the benchmark has it.
	why string
	// setup builds the machine, the VMs and the inputs for seed. tr, when
	// set, decorates the sdk.Env, the devices of every set and the
	// RankManager handed to the VMs.
	setup func(seed int64, tr *tracer, corrupt bool) (*instance, error)
}

// instance is a set-up workload. prepare and check run outside the timed
// interval; run is the timed iteration and returns its virtual time.
type instance struct {
	prepare func(it int) error
	run     func(it int) (time.Duration, error)
	check   func(it int) error
	// native runs the same iteration's inputs on a native environment and
	// returns its virtual time (the denominator of virt_overhead_x) and the
	// virtual time of its DPU phase.
	native func(tr *tracer) (virt, dpu time.Duration, err error)
	// counters reports the virtio-pim counters summed over every VM the
	// instance has booted, plus the manager's; tracker sums the VMs'
	// virtual-time categories.
	counters func() map[string]int64
	tracker  func() map[string]time.Duration
}

var workloads = []workload{
	{
		name: "prim-mix",
		why: "VA, BS, TS, HST-L and NW end to end on one rank: host time is mostly simulated " +
			"kernel execution and app host code, so kernel work shows here and data-path work should not",
		setup: setupPrimMix,
	},
	{
		name: "push-pull",
		why: "bulk distinct push, shared-buffer push and pull on 2 ranks, no kernel: host time " +
			"goes to moving bytes through driver, backend, copy and rank storage",
		setup: setupPushPull,
	},
	{
		name: "tenants",
		why: "3 VMs time-sliced on 1 rank by checkpoint/restore, many 64 B per-DPU accesses: " +
			"per-message cost and manager switching, the opposite use of the data path",
		setup: setupTenants,
	},
}

func lookup(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// --- shared helpers ----------------------------------------------------------

// newMachine builds a machine of ranks × 60 DPUs (64 MB MRAM each, the
// hardware default) with the PrIM kernels registered.
func newMachine(ranks int) (*pim.Machine, error) {
	mach, err := pim.NewMachine(pim.MachineConfig{Ranks: ranks, Rank: pim.RankConfig{DPUs: 60}})
	if err != nil {
		return nil, err
	}
	if err := prim.Register(mach.Registry()); err != nil {
		return nil, err
	}
	return mach, nil
}

func rankManager(mgr *manager.Manager, tr *tracer) manager.RankManager {
	if tr == nil {
		return mgr
	}
	return &traceManager{RankManager: mgr, t: tr}
}

func bootVM(mach *pim.Machine, mgr manager.RankManager, name string, vupmems int) (*vmm.VM, error) {
	return vmm.NewVM(mach, mgr, vmm.Config{Name: name, VUPMEMs: vupmems, MemBytes: 1 << 30, Options: vmm.Full()})
}

// vmCounters sums the counters of vms and adds kvm.exits, which the
// transition path keeps outside the registry.
func vmCounters(into map[string]int64, vms ...*vmm.VM) map[string]int64 {
	if into == nil {
		into = make(map[string]int64)
	}
	for _, vm := range vms {
		for k, v := range obs.Aggregate(vm.Metrics()) {
			into[k] += v
		}
		into["kvm.exits"] += vm.KVM().Exits()
	}
	return into
}

func addManager(into map[string]int64, mgr *manager.Manager) map[string]int64 {
	for k, v := range mgr.Metrics() {
		into[k] += v
	}
	return into
}

func trackerSum(into map[string]time.Duration, envs ...sdk.Env) map[string]time.Duration {
	if into == nil {
		into = make(map[string]time.Duration)
	}
	for _, e := range envs {
		for k, v := range e.Tracker().Snapshot() {
			into[k] += v
		}
	}
	return into
}

// digester hashes a set's readback stream (kind, dpu, offset, bytes).
type digester struct{ h hash.Hash64 }

func newDigester() *digester { return &digester{h: fnv.New64a()} }

func (d *digester) observe(kind string, dpu int, off int64, data []byte) {
	var frame [24]byte
	d.h.Write([]byte(kind))
	binary.LittleEndian.PutUint64(frame[0:], uint64(dpu))
	binary.LittleEndian.PutUint64(frame[8:], uint64(off))
	binary.LittleEndian.PutUint64(frame[16:], uint64(len(data)))
	d.h.Write(frame[:])
	d.h.Write(data)
}

// stamp writes the iteration number into the first word of every page of
// buf, so a transfer that silently moved nothing is caught even though the
// rest of the bytes repeat.
func stamp(buf []byte, it int) {
	for off := 0; off+8 <= len(buf); off += hostmem.PageSize {
		binary.LittleEndian.PutUint64(buf[off:], uint64(it))
	}
}

// --- prim-mix ------------------------------------------------------------------

// primApps are chosen by host-time profile share: BS and HST-L are
// kernel-heavy, VA and TS bulk-transfer-heavy, and NW issues many small
// transfers, so its virtual time is bound by message count.
var primApps = []string{"VA", "BS", "TS", "HST-L", "NW"}

// primDPUs sizes every app weak-scaled to 8 DPUs of the 60-DPU rank
// (NW needs a multiple of 8), about 0.6 s of host time per pass on a
// 2-CPU host.
const primDPUs = 8

// primRefs memoizes the native reference digests per seed: the reference
// pass is the benchmark's own work, so only the first set-up of a run pays
// for it and setup_s (the median of several set-ups) leaves it out.
var primRefs = map[int64][]uint64{}

func setupPrimMix(seed int64, tr *tracer, corrupt bool) (*instance, error) {
	params := prim.Params{DPUs: primDPUs, Weak: true, Seed: seed}
	apps := make([]prim.App, len(primApps))
	for i, name := range primApps {
		app, err := prim.Lookup(name)
		if err != nil {
			return nil, err
		}
		apps[i] = app
	}
	// Native pass: reference digests and the native virtual time.
	runNative := func(tr *tracer, digests []uint64) (time.Duration, time.Duration, error) {
		mach, err := newMachine(1)
		if err != nil {
			return 0, 0, err
		}
		env := native.NewEnv(mach, manager.New(mach, manager.Options{}), 1<<30)
		benv := &benchEnv{Env: env, t: tr}
		for i, app := range apps {
			d := newDigester()
			benv.observe = d.observe
			if err := runApp(tr, app, benv, params); err != nil {
				return 0, 0, fmt.Errorf("native %s: %w", app.Name, err)
			}
			digests[i] = d.h.Sum64()
		}
		return env.Timeline().Now(), env.Tracker().Get(trace.PhaseDPU), nil
	}
	ref, ok := primRefs[seed]
	if !ok {
		ref = make([]uint64, len(apps))
		if _, _, err := runNative(nil, ref); err != nil {
			return nil, err
		}
		primRefs[seed] = ref
	}

	mach, err := newMachine(1)
	if err != nil {
		return nil, err
	}
	mgr := manager.New(mach, manager.Options{})
	rm := rankManager(mgr, tr)
	// Guest RAM has no free and every set allocation attaches fresh driver
	// buffers, so each pass boots its own guest (one guest process
	// lifetime); the machine, the manager and the kernel registry persist.
	var vm *vmm.VM
	retired := make(map[string]int64)
	var retiredT map[string]time.Duration
	digests := make([]uint64, len(apps))
	inst := &instance{
		prepare: func(int) error {
			if vm != nil {
				vmCounters(retired, vm)
				retiredT = trackerSum(retiredT, vm)
			}
			next, err := bootVM(mach, rm, "prim", 1)
			vm = next
			return err
		},
		run: func(int) (time.Duration, error) {
			benv := &benchEnv{Env: vm, t: tr, corrupt: corrupt}
			start := vm.Timeline().Now()
			for i, app := range apps {
				d := newDigester()
				benv.observe = d.observe
				if err := runApp(tr, app, benv, params); err != nil {
					return 0, fmt.Errorf("%s: %w", app.Name, err)
				}
				digests[i] = d.h.Sum64()
			}
			return vm.Timeline().Now() - start, nil
		},
		check: func(int) error {
			for i := range apps {
				if digests[i] != ref[i] {
					return fmt.Errorf("%s: readback digest %016x, native reference %016x", apps[i].Name, digests[i], ref[i])
				}
			}
			return nil
		},
		native: func(tr *tracer) (time.Duration, time.Duration, error) {
			got := make([]uint64, len(apps))
			virt, dpu, err := runNative(tr, got)
			if err != nil {
				return 0, 0, err
			}
			for i := range got {
				if got[i] != ref[i] {
					return 0, 0, fmt.Errorf("native %s: digest changed between passes", apps[i].Name)
				}
			}
			return virt, dpu, nil
		},
		counters: func() map[string]int64 {
			out := make(map[string]int64, len(retired))
			for k, v := range retired {
				out[k] = v
			}
			return addManager(vmCounters(out, vm), mgr)
		},
		tracker: func() map[string]time.Duration {
			out := trackerSum(nil, vm)
			for k, v := range retiredT {
				out[k] += v
			}
			return out
		},
	}
	return inst, nil
}

// runApp runs one PrIM application, as a span of its own when tracing.
func runApp(tr *tracer, app prim.App, env sdk.Env, p prim.Params) error {
	if tr == nil {
		return app.Run(env, p)
	}
	s := tr.begin(kApp, "", 0, 0)
	err := app.Run(env, p)
	tr.end(s, "")
	return err
}

// --- push-pull -----------------------------------------------------------------

const (
	ppRanks = 2
	ppDPUs  = ppRanks * 60
	ppBytes = 256 << 10
)

// pushPull is the transfer loop shared by the VM and its native twin.
type pushPull struct {
	set      *sdk.Set
	src, dst []hostmem.Buffer
	shared   hostmem.Buffer
}

func newPushPull(env sdk.Env, rng *rand.Rand) (*pushPull, error) {
	set, err := env.AllocSet(ppDPUs)
	if err != nil {
		return nil, err
	}
	p := &pushPull{set: set, src: make([]hostmem.Buffer, ppDPUs), dst: make([]hostmem.Buffer, ppDPUs)}
	if p.shared, err = env.AllocBuffer(ppBytes); err != nil {
		return nil, err
	}
	rng.Read(p.shared.Data)
	for i := range p.src {
		if p.src[i], err = env.AllocBuffer(ppBytes); err != nil {
			return nil, err
		}
		if p.dst[i], err = env.AllocBuffer(ppBytes); err != nil {
			return nil, err
		}
		rng.Read(p.src[i].Data)
	}
	return p, nil
}

func (p *pushPull) stamp(it int) {
	stamp(p.shared.Data, it)
	for i := range p.src {
		stamp(p.src[i].Data, it)
	}
}

// iterate pushes a distinct buffer to every DPU at MRAM offset 0, the
// shared buffer to every DPU right after it, and pulls a window that
// straddles both, so the check sees the bytes of both pushes.
func (p *pushPull) iterate() error {
	for i := range p.src {
		if err := p.set.PrepareXfer(i, p.src[i]); err != nil {
			return err
		}
	}
	if err := p.set.PushXfer(sdk.ToDPU, 0, ppBytes); err != nil {
		return err
	}
	for i := range p.src {
		if err := p.set.PrepareXfer(i, p.shared); err != nil {
			return err
		}
	}
	if err := p.set.PushXfer(sdk.ToDPU, ppBytes, ppBytes); err != nil {
		return err
	}
	for i := range p.dst {
		if err := p.set.PrepareXfer(i, p.dst[i]); err != nil {
			return err
		}
	}
	return p.set.PushXfer(sdk.FromDPU, ppBytes/2, ppBytes)
}

func (p *pushPull) check() error {
	const half = ppBytes / 2
	for i := range p.dst {
		got := p.dst[i].Data
		if !bytes.Equal(got[:half], p.src[i].Data[half:]) {
			return fmt.Errorf("DPU %d: pulled bytes differ from its distinct push", i)
		}
		if !bytes.Equal(got[half:], p.shared.Data[:half]) {
			return fmt.Errorf("DPU %d: pulled bytes differ from the shared push", i)
		}
	}
	return nil
}

func setupPushPull(seed int64, tr *tracer, corrupt bool) (*instance, error) {
	mach, err := newMachine(ppRanks)
	if err != nil {
		return nil, err
	}
	mgr := manager.New(mach, manager.Options{})
	vm, err := bootVM(mach, rankManager(mgr, tr), "pp", ppRanks)
	if err != nil {
		return nil, err
	}
	p, err := newPushPull(&benchEnv{Env: vm, t: tr, corrupt: corrupt}, rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, err
	}
	inst := &instance{
		prepare: func(it int) error { p.stamp(it); return nil },
		run: func(int) (time.Duration, error) {
			start := vm.Timeline().Now()
			err := p.iterate()
			return vm.Timeline().Now() - start, err
		},
		check: func(int) error { return p.check() },
		native: func(tr *tracer) (time.Duration, time.Duration, error) {
			nmach, err := newMachine(ppRanks)
			if err != nil {
				return 0, 0, err
			}
			env := native.NewEnv(nmach, manager.New(nmach, manager.Options{}), 1<<30)
			np, err := newPushPull(&benchEnv{Env: env, t: tr}, rand.New(rand.NewSource(seed)))
			if err != nil {
				return 0, 0, err
			}
			np.stamp(0)
			start := env.Timeline().Now()
			if err := np.iterate(); err != nil {
				return 0, 0, err
			}
			return env.Timeline().Now() - start, 0, np.check()
		},
		counters: func() map[string]int64 { return addManager(vmCounters(nil, vm), mgr) },
		tracker:  func() map[string]time.Duration { return trackerSum(nil, vm) },
	}
	return inst, nil
}

// --- tenants -------------------------------------------------------------------

const (
	tnVMs      = 3
	tnDPUs     = 60
	tnBulk     = 64 << 10 // bytes pushed per DPU each turn
	tnWindow   = 4 << 10  // bytes per DPU read back from the previous push
	tnSmall    = 64       // bytes per small access
	tnRounds   = 4        // read-all-then-write-all passes per turn
	tnSmallOff = 1 << 20  // MRAM offset of the small-access slots
)

// tenantOpts is the time-slicing manager of the conformance time-slicing
// cell: a sub-millisecond quantum so every turn preempts the previous
// tenant, and enough poll attempts for the aging path to reach a grant.
func tenantOpts() manager.Options {
	return manager.Options{
		Retries:      8,
		RetryTimeout: time.Millisecond,
		Backoff:      1.5,
		SchedPolicy:  manager.SchedSlice,
		Quantum:      500 * time.Microsecond,
	}
}

// tenant is one VM's (or native twin's) set and its per-round inputs.
type tenant struct {
	env    sdk.Env
	set    *sdk.Set
	bulk   []hostmem.Buffer // per DPU, pushed at MRAM offset 0
	window []hostmem.Buffer // per DPU, read back from the previous push
	want   [][]byte         // expected window bytes of the previous push
	winOff int64
	order  []int     // DPU visiting order of the small accesses
	slots  [][]int64 // [pass][dpu] small-access MRAM offset
	small  [][]byte  // [pass*tnDPUs+dpu] value written this round
	prev   [][]byte  // value written the round before
	wbuf   hostmem.Buffer
	rbuf   hostmem.Buffer
	// played is false until the first turn: before it the DPUs hold
	// nothing of the tenant's to check.
	played bool
}

func newTenant(env sdk.Env, rng *rand.Rand) (*tenant, error) {
	set, err := env.AllocSet(tnDPUs)
	if err != nil {
		return nil, err
	}
	t := &tenant{env: env, set: set, winOff: int64(rng.Intn(tnBulk/tnWindow)) * tnWindow, order: rng.Perm(tnDPUs)}
	for d := 0; d < tnDPUs; d++ {
		b, err := env.AllocBuffer(tnBulk)
		if err != nil {
			return nil, err
		}
		rng.Read(b.Data)
		w, err := env.AllocBuffer(tnWindow)
		if err != nil {
			return nil, err
		}
		t.bulk = append(t.bulk, b)
		t.window = append(t.window, w)
		t.want = append(t.want, make([]byte, tnWindow))
	}
	for pass := 0; pass < tnRounds; pass++ {
		offs := make([]int64, tnDPUs)
		for d := range offs {
			offs[d] = tnSmallOff + int64(pass*64+rng.Intn(64))*tnSmall
		}
		t.slots = append(t.slots, offs)
	}
	for i := 0; i < tnRounds*tnDPUs; i++ {
		v := make([]byte, tnSmall)
		rng.Read(v)
		t.small = append(t.small, v)
		t.prev = append(t.prev, make([]byte, tnSmall))
	}
	if t.wbuf, err = env.AllocBuffer(tnSmall); err != nil {
		return nil, err
	}
	if t.rbuf, err = env.AllocBuffer(tnSmall); err != nil {
		return nil, err
	}
	return t, nil
}

// prepare records what the tenant's previous turn left on its DPUs and
// stamps this round's inputs.
func (t *tenant) prepare(it int) {
	for d := range t.bulk {
		copy(t.want[d], t.bulk[d].Data[t.winOff:])
		stamp(t.bulk[d].Data, it)
	}
	for i := range t.small {
		copy(t.prev[i], t.small[i])
		binary.LittleEndian.PutUint64(t.small[i], uint64(it))
	}
}

// turn is one tenant's time slice: check that its previous turn's bytes
// survived preemption, push the bulk buffers, then alternate a pass of
// small per-DPU reads (each checked against the previous round) with a pass
// of small per-DPU writes, the Inter-DPU pattern of RED, SCAN and HST.
func (t *tenant) turn() error {
	for d := range t.window {
		if err := t.set.PrepareXfer(d, t.window[d]); err != nil {
			return err
		}
	}
	if err := t.set.PushXfer(sdk.FromDPU, t.winOff, tnWindow); err != nil {
		return err
	}
	for d := range t.window {
		if t.played && !bytes.Equal(t.window[d].Data, t.want[d]) {
			return fmt.Errorf("DPU %d: bulk bytes of the previous turn did not survive", d)
		}
	}
	for d := range t.bulk {
		if err := t.set.PrepareXfer(d, t.bulk[d]); err != nil {
			return err
		}
	}
	if err := t.set.PushXfer(sdk.ToDPU, 0, tnBulk); err != nil {
		return err
	}
	for pass := 0; pass < tnRounds; pass++ {
		for _, d := range t.order {
			if err := t.set.CopyFromMRAM(d, t.slots[pass][d], t.rbuf, tnSmall); err != nil {
				return err
			}
			if t.played && !bytes.Equal(t.rbuf.Data, t.prev[pass*tnDPUs+d]) {
				return fmt.Errorf("DPU %d: small slot %d of the previous round did not survive", d, pass)
			}
		}
		for _, d := range t.order {
			copy(t.wbuf.Data, t.small[pass*tnDPUs+d])
			if err := t.set.CopyToMRAM(d, t.slots[pass][d], t.wbuf, tnSmall); err != nil {
				return err
			}
		}
	}
	t.played = true
	return nil
}

func newTenants(envs []sdk.Env, seed int64) ([]*tenant, error) {
	ts := make([]*tenant, len(envs))
	for i, env := range envs {
		t, err := newTenant(env, rand.New(rand.NewSource(seed*tnVMs+int64(i))))
		if err != nil {
			return nil, fmt.Errorf("tenant %d: %w", i, err)
		}
		ts[i] = t
	}
	return ts, nil
}

// round runs every tenant's turn in order and returns the virtual time the
// turns took, summed over the tenants' clocks.
func round(ts []*tenant) (time.Duration, error) {
	var virt time.Duration
	for i, t := range ts {
		start := t.env.Timeline().Now()
		if err := t.turn(); err != nil {
			return 0, fmt.Errorf("tenant %d: %w", i, err)
		}
		virt += t.env.Timeline().Now() - start
	}
	return virt, nil
}

func setupTenants(seed int64, tr *tracer, corrupt bool) (*instance, error) {
	mach, err := newMachine(1)
	if err != nil {
		return nil, err
	}
	mgr := manager.New(mach, tenantOpts())
	rm := rankManager(mgr, tr)
	vms := make([]*vmm.VM, tnVMs)
	envs := make([]sdk.Env, tnVMs)
	for i := range vms {
		if vms[i], err = bootVM(mach, rm, fmt.Sprintf("tenant%d", i), 1); err != nil {
			return nil, err
		}
		envs[i] = &benchEnv{Env: vms[i], t: tr, corrupt: corrupt}
	}
	ts, err := newTenants(envs, seed)
	if err != nil {
		return nil, err
	}
	inst := &instance{
		prepare: func(it int) error {
			for _, t := range ts {
				t.prepare(it)
			}
			return nil
		},
		run:   func(int) (time.Duration, error) { return round(ts) },
		check: func(int) error { return nil },
		native: func(tr *tracer) (time.Duration, time.Duration, error) {
			// The twin gives every tenant a rank of its own: the same
			// turns without contention or switching. Its first round has
			// nothing to check yet, like the VMs' warm-up.
			nmach, err := newMachine(tnVMs)
			if err != nil {
				return 0, 0, err
			}
			env := native.NewEnv(nmach, manager.New(nmach, manager.Options{}), 1<<30)
			benv := &benchEnv{Env: env, t: tr}
			nts, err := newTenants([]sdk.Env{benv, benv, benv}, seed)
			if err != nil {
				return 0, 0, err
			}
			var virt time.Duration
			for it := 0; it < 2; it++ {
				for _, t := range nts {
					t.prepare(it)
				}
				if virt, err = round(nts); err != nil {
					return 0, 0, err
				}
			}
			return virt, 0, nil
		},
		counters: func() map[string]int64 { return addManager(vmCounters(nil, vms...), mgr) },
		tracker: func() map[string]time.Duration {
			es := make([]sdk.Env, len(vms))
			for i, vm := range vms {
				es[i] = vm
			}
			return trackerSum(nil, es...)
		},
	}
	return inst, nil
}
