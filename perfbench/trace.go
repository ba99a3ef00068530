package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/hostmem"
	"repro/internal/manager"
	"repro/internal/pim"
	"repro/internal/sdk"
	"repro/internal/simtime"
)

// kind names the boundary a span was recorded at. Device kinds follow the
// tracker's operation categories: Sym* writes and reads, Launch and Load are
// CI commands, as the guest driver charges them.
type kind uint8

const (
	kIter kind = iota
	kApp
	kAllocSet
	kAllocBuffer
	kWriteRank
	kReadRank
	kCI
	kLaunch
	kDevRelease
	kMgrAlloc
	kMgrAcquire
	kMgrEndOp
	kMgrRelease
	nKinds
)

func (k kind) device() bool  { return k >= kWriteRank && k <= kDevRelease }
func (k kind) manager() bool { return k >= kMgrAlloc && k <= kMgrRelease }

// span is one call into a layer's public interface, timed on the host clock
// from the benchmark's side of the boundary.
type span struct {
	start, end             time.Duration // since the tracer's epoch
	parent                 int32         // index of the enclosing span, -1 for a root
	iter                   int32         // iteration id, -1 during set-up
	kind                   kind
	checkpointed, restored bool          // a manager acquire that switched tenants
	rows                   int32         // DPU entries of a rank transfer
	bytes                  int64         // payload bytes the caller asked a device to move
	virtWait               time.Duration // AcquireCost.Wait of a manager acquire
}

// tracer records spans in memory; they are analysed when the run ends so
// the timed loop only pays for the clock reads and one append per call.
//
// Iteration, application and environment spans are opened by the one
// goroutine that drives the workload and nest on a stack. Device calls may
// run on the set's rank fan-out goroutines, so a device span's parent is
// whatever the stack holds when it starts, and a manager call's parent is the
// open device span of the same owner (backends name their manager owner
// after the vUPMEM device).
type tracer struct {
	epoch time.Time

	mu     sync.Mutex
	spans  []span
	stack  []int32
	open   map[string]int32
	owners map[*pim.Rank]string // rank -> owner of its last acquire, for EndOp
	iter   int32
}

func newTracer() *tracer {
	return &tracer{
		epoch:  time.Now(),
		spans:  make([]span, 0, 1<<16),
		open:   make(map[string]int32),
		owners: make(map[*pim.Rank]string),
		iter:   -1,
	}
}

// now reads the host clock relative to the epoch (monotonic).
func (t *tracer) now() time.Duration { return time.Since(t.epoch) }

// begin records the start of a span. owner, when set, attributes the span
// to that device's open span.
func (t *tracer) begin(k kind, owner string, rows int, bytes int64) int32 {
	start := t.now()
	t.mu.Lock()
	parent := int32(-1)
	if p, ok := t.open[owner]; ok && owner != "" {
		parent = p
	} else if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	idx := int32(len(t.spans))
	t.spans = append(t.spans, span{start: start, parent: parent, iter: t.iter, kind: k, rows: int32(rows), bytes: bytes})
	switch {
	case k.device():
		t.open[owner] = idx
	case !k.manager():
		t.stack = append(t.stack, idx)
	}
	t.mu.Unlock()
	return idx
}

// end closes span idx.
func (t *tracer) end(idx int32, owner string) {
	end := t.now()
	t.mu.Lock()
	s := &t.spans[idx]
	s.end = end
	switch {
	case s.kind.device():
		delete(t.open, owner)
	case !s.kind.manager():
		t.stack = t.stack[:len(t.stack)-1]
	}
	t.mu.Unlock()
}

// beginIter opens the root span of iteration it.
func (t *tracer) beginIter(it int) int32 {
	t.mu.Lock()
	t.iter = int32(it)
	t.mu.Unlock()
	return t.begin(kIter, "", 0, 0)
}

// endIter closes the iteration root and returns its host duration.
func (t *tracer) endIter(idx int32) time.Duration {
	t.end(idx, "")
	t.mu.Lock()
	defer t.mu.Unlock()
	t.iter = -1
	return t.spans[idx].end - t.spans[idx].start
}

// --- sdk.Env / sdk.Device / manager.RankManager decorators ----------------

// traceDevice times every call into one sdk.Device. Geometry getters are
// forwarded untimed: the set calls them on every DPU lookup.
type traceDevice struct {
	sdk.Device
	t  *tracer
	id string
}

func (d *traceDevice) call(k kind, bytes int64, fn func() error) error {
	s := d.t.begin(k, d.id, 0, bytes)
	err := fn()
	d.t.end(s, d.id)
	return err
}

func (d *traceDevice) xfer(k kind, entries []sdk.DPUXfer, length int, fn func() error) error {
	s := d.t.begin(k, d.id, len(entries), int64(len(entries))*int64(length))
	err := fn()
	d.t.end(s, d.id)
	return err
}

func (d *traceDevice) LoadProgram(name string, tl *simtime.Timeline) error {
	return d.call(kCI, 0, func() error { return d.Device.LoadProgram(name, tl) })
}

func (d *traceDevice) WriteRank(entries []sdk.DPUXfer, off int64, length int, tl *simtime.Timeline) error {
	return d.xfer(kWriteRank, entries, length, func() error {
		return d.Device.WriteRank(entries, off, length, tl)
	})
}

func (d *traceDevice) ReadRank(entries []sdk.DPUXfer, off int64, length int, tl *simtime.Timeline) error {
	return d.xfer(kReadRank, entries, length, func() error {
		return d.Device.ReadRank(entries, off, length, tl)
	})
}

func (d *traceDevice) SymWrite(dpu int, symbol string, off int, src []byte, tl *simtime.Timeline) error {
	return d.call(kCI, int64(len(src)), func() error { return d.Device.SymWrite(dpu, symbol, off, src, tl) })
}

func (d *traceDevice) SymBroadcast(symbol string, off int, src []byte, tl *simtime.Timeline) error {
	n := int64(len(src)) * int64(d.NumDPUs())
	return d.call(kCI, n, func() error { return d.Device.SymBroadcast(symbol, off, src, tl) })
}

func (d *traceDevice) SymRead(dpu int, symbol string, off int, dst []byte, tl *simtime.Timeline) error {
	return d.call(kCI, int64(len(dst)), func() error { return d.Device.SymRead(dpu, symbol, off, dst, tl) })
}

func (d *traceDevice) Launch(dpus []int, tl *simtime.Timeline) error {
	return d.call(kLaunch, 0, func() error { return d.Device.Launch(dpus, tl) })
}

func (d *traceDevice) LaunchStart(dpus []int, tl *simtime.Timeline) (simtime.Duration, error) {
	var done simtime.Duration
	err := d.call(kLaunch, 0, func() error {
		var err error
		done, err = d.Device.LaunchStart(dpus, tl)
		return err
	})
	return done, err
}

func (d *traceDevice) Release(tl *simtime.Timeline) error {
	return d.call(kDevRelease, 0, func() error { return d.Device.Release(tl) })
}

// corruptDevice flips one byte of every bulk readback: a planted defect the
// benchmark's correctness gate must catch.
type corruptDevice struct{ sdk.Device }

func (d corruptDevice) ReadRank(entries []sdk.DPUXfer, off int64, length int, tl *simtime.Timeline) error {
	if err := d.Device.ReadRank(entries, off, length, tl); err != nil {
		return err
	}
	for _, e := range entries {
		if length > 0 {
			e.Buf.Data[length-1] ^= 0x5a
		}
	}
	return nil
}

// traceManager times the RankManager handed to the VMs.
type traceManager struct {
	manager.RankManager
	t *tracer
}

func (m *traceManager) Alloc(owner string) (*pim.Rank, time.Duration, error) {
	s := m.t.begin(kMgrAlloc, owner, 0, 0)
	r, d, err := m.RankManager.Alloc(owner)
	m.t.end(s, owner)
	return r, d, err
}

func (m *traceManager) Acquire(owner string, r *pim.Rank) (*pim.Rank, manager.AcquireCost, error) {
	s := m.t.begin(kMgrAcquire, owner, 0, 0)
	got, cost, err := m.RankManager.Acquire(owner, r)
	m.t.end(s, owner)
	m.t.mu.Lock()
	m.t.spans[s].checkpointed = cost.Checkpoint > 0
	m.t.spans[s].restored = cost.Restore > 0
	m.t.spans[s].virtWait = cost.Wait
	if got != nil {
		m.t.owners[got] = owner
	}
	m.t.mu.Unlock()
	return got, cost, err
}

func (m *traceManager) EndOp(r *pim.Rank, elapsed time.Duration) {
	m.t.mu.Lock()
	owner := m.t.owners[r]
	m.t.mu.Unlock()
	s := m.t.begin(kMgrEndOp, owner, 0, 0)
	m.RankManager.EndOp(r, elapsed)
	m.t.end(s, owner)
}

func (m *traceManager) ReleaseOwned(owner string, r *pim.Rank) error {
	s := m.t.begin(kMgrRelease, owner, 0, 0)
	err := m.RankManager.ReleaseOwned(owner, r)
	m.t.end(s, owner)
	return err
}

func (m *traceManager) MigrateOwned(owner string, from *pim.Rank) (*pim.Rank, time.Duration, error) {
	s := m.t.begin(kMgrRelease, owner, 0, 0)
	r, d, err := m.RankManager.MigrateOwned(owner, from)
	m.t.end(s, owner)
	return r, d, err
}

func (m *traceManager) Discard(owner string) bool {
	s := m.t.begin(kMgrRelease, owner, 0, 0)
	ok := m.RankManager.Discard(owner)
	m.t.end(s, owner)
	return ok
}

// benchEnv is the sdk.Env every workload hands the program. It digests
// readbacks when asked to, and when tracing (or planting a defect) rebuilds
// each allocated set over decorated devices with sdk.NewSet.
type benchEnv struct {
	sdk.Env
	t       *tracer
	corrupt bool
	observe sdk.ReadObserver
}

func (e *benchEnv) AllocSet(nrDPUs int) (*sdk.Set, error) {
	var s int32
	if e.t != nil {
		s = e.t.begin(kAllocSet, "", 0, 0)
	}
	set, err := e.allocSet(nrDPUs)
	if e.t != nil {
		e.t.end(s, "")
	}
	if err != nil {
		return nil, err
	}
	set.ObserveReads(e.observe)
	return set, nil
}

func (e *benchEnv) allocSet(nrDPUs int) (*sdk.Set, error) {
	set, err := e.Env.AllocSet(nrDPUs)
	if err != nil || (e.t == nil && !e.corrupt) {
		return set, err
	}
	devs := set.Devices()
	for i, d := range devs {
		if e.corrupt {
			d = corruptDevice{d}
		}
		if e.t != nil {
			// A vUPMEM device is named after its manager owner; a native
			// device has no owner and only needs a unique key.
			id := fmt.Sprintf("%p", devs[i])
			if named, ok := devs[i].(interface{ ID() string }); ok {
				id = named.ID()
			}
			d = &traceDevice{Device: d, t: e.t, id: id}
		}
		devs[i] = d
	}
	return sdk.NewSet(devs, nrDPUs, e.Timeline())
}

func (e *benchEnv) AllocBuffer(n int) (hostmem.Buffer, error) {
	if e.t == nil {
		return e.Env.AllocBuffer(n)
	}
	s := e.t.begin(kAllocBuffer, "", 0, 0)
	buf, err := e.Env.AllocBuffer(n)
	e.t.end(s, "")
	return buf, err
}

// --- Analysis ---------------------------------------------------------------

// layerTotals folds a tracer's spans into per-kind self time, counts and
// bytes. Self time is a span's duration minus the time its children cover;
// where sibling spans overlap (the rank fan-out on real goroutines), each
// overlapped instant is shared equally among the innermost open spans, so
// the self times of one iteration add up to the time its spans cover.
type layerTotals struct {
	self        [nKinds]float64 // ns
	count       [nKinds]int64
	rows        [nKinds]int64
	bytes       [nKinds]int64
	switchSelf  float64
	switches    int64
	restores    int64
	virtWait    time.Duration
	setupEnv    float64 // ns of env self time during set-up and warm-up
	iters       int
	maxMismatch float64 // worst |sum(self) - wall| / wall over iterations
	orphans     int     // manager calls outside any device or env span
}

func (t *tracer) analyse() (*layerTotals, error) {
	t.mu.Lock()
	spans := t.spans
	t.mu.Unlock()
	lt := &layerTotals{}
	for lo := 0; lo < len(spans); {
		hi := lo + 1
		for hi < len(spans) && spans[hi].iter == spans[lo].iter {
			hi++
		}
		if err := lt.group(spans, lo, hi); err != nil {
			return nil, err
		}
		lo = hi
	}
	return lt, nil
}

type event struct {
	at    time.Duration
	start bool
	idx   int32
}

// group analyses the spans [lo, hi) of one iteration (or of set-up).
func (lt *layerTotals) group(spans []span, lo, hi int) error {
	n := hi - lo
	evs := make([]event, 0, 2*n)
	for i := lo; i < hi; i++ {
		s := spans[i]
		if s.end < s.start {
			return fmt.Errorf("span %d (kind %d) never ended", i, s.kind)
		}
		evs = append(evs, event{s.start, true, int32(i)}, event{s.end, false, int32(i)})
	}
	// Ties: ends before starts, inner ends before outer ends, outer starts
	// before inner starts.
	sort.Slice(evs, func(a, b int) bool {
		ea, eb := evs[a], evs[b]
		if ea.at != eb.at {
			return ea.at < eb.at
		}
		if ea.start != eb.start {
			return !ea.start
		}
		if ea.start {
			return ea.idx < eb.idx
		}
		return ea.idx > eb.idx
	})
	self := make([]float64, n)
	openKids := make([]int32, n)
	isOpen := make([]bool, n)
	var leaves []int32
	drop := func(i int32) {
		for j, l := range leaves {
			if l == i {
				leaves = append(leaves[:j], leaves[j+1:]...)
				return
			}
		}
	}
	local := func(p int32) (int32, bool) {
		if p < int32(lo) || p >= int32(hi) {
			return 0, false
		}
		return p - int32(lo), true
	}
	prev := evs[0].at
	for _, ev := range evs {
		if dt := ev.at - prev; dt > 0 && len(leaves) > 0 {
			share := float64(dt) / float64(len(leaves))
			for _, l := range leaves {
				self[l] += share
			}
		}
		prev = ev.at
		i := ev.idx - int32(lo)
		p, hasParent := local(spans[ev.idx].parent)
		if ev.start {
			isOpen[i] = true
			if hasParent && isOpen[p] {
				if openKids[p] == 0 {
					drop(p)
				}
				openKids[p]++
			}
			leaves = append(leaves, i)
			continue
		}
		isOpen[i] = false
		drop(i)
		if hasParent && isOpen[p] {
			openKids[p]--
			if openKids[p] == 0 {
				leaves = append(leaves, p)
			}
		}
	}
	if spans[lo].iter < 0 {
		for i := 0; i < n; i++ {
			if k := spans[lo+i].kind; k == kAllocSet || k == kAllocBuffer {
				lt.setupEnv += self[i]
			}
		}
		return nil
	}
	var sum float64
	for i := 0; i < n; i++ {
		s := spans[lo+i]
		sum += self[i]
		lt.rows[s.kind] += int64(s.rows)
		lt.self[s.kind] += self[i]
		lt.count[s.kind]++
		lt.bytes[s.kind] += s.bytes
		if s.kind == kMgrAcquire {
			lt.virtWait += s.virtWait
			if s.checkpointed || s.restored {
				lt.switchSelf += self[i]
				lt.switches++
			}
			if s.restored {
				lt.restores++
			}
		}
		if s.kind.manager() {
			if _, ok := local(s.parent); !ok {
				lt.orphans++
			}
		}
	}
	root := spans[lo]
	if root.kind != kIter {
		return fmt.Errorf("iteration %d: first span is kind %d, not the iteration root", root.iter, root.kind)
	}
	wall := root.end - root.start
	lt.iters++
	if wall > 0 {
		if m := math.Abs(sum-float64(wall)) / float64(wall); m > lt.maxMismatch {
			lt.maxMismatch = m
		}
	}
	return nil
}
