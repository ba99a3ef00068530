// Package driver implements the vUPMEM frontend: the virtio device driver
// living in the guest kernel (Section 4.1). It exposes a rank to the guest
// userspace in safe mode, serializes transfer matrices into the virtqueue,
// and implements the two data-path optimizations the paper introduces — the
// prefetch cache for frequent small reads and request batching for frequent
// small writes — both of which exist to cut the number of guest<->VMM
// transitions, the dominant source of virtualization overhead.
package driver

import (
	"errors"
	"fmt"

	"repro/internal/cost"
	"repro/internal/hostmem"
	"repro/internal/kvm"
	"repro/internal/obs"
	"repro/internal/sdk"
	"repro/internal/simtime"
	"repro/internal/virtio"
)

// Default optimization geometry (Section 4.1).
const (
	// DefaultPrefetchPages is the prefetch cache size per DPU (16 pages).
	DefaultPrefetchPages = 16
	// DefaultBatchPages is the batch buffer size per DPU (64 pages).
	DefaultBatchPages = 64
	// DefaultPipelineDepth is the submission window size: how many chains
	// the frontend stages on the avail ring before it must kick.
	DefaultPipelineDepth = 8
	// batchRecordHeader is the packed record header: mramOff u64 + len u64.
	batchRecordHeader = 16
)

// Options selects the frontend optimizations; Table 2 of the paper toggles
// these to isolate each optimization's effect.
type Options struct {
	// Prefetch enables the per-DPU prefetch cache for small reads.
	Prefetch bool
	// Batch enables request batching for small writes.
	Batch bool
	// PrefetchPages overrides the cache size (pages per DPU).
	PrefetchPages int
	// BatchPages overrides the batch buffer size (pages per DPU).
	BatchPages int
	// BatchThreshold is the largest per-DPU write the frontend batches.
	BatchThreshold int
	// Pipeline enables the pipelined submission window: independent chains
	// are staged on the avail ring with notifications suppressed and kicked
	// as one window answered by one coalesced IRQ.
	Pipeline bool
	// PipelineDepth overrides the window size (chains per kick).
	PipelineDepth int
	// Bcast enables broadcast deduplication: a write-to-rank whose rows all
	// share one backing buffer collapses to a single wire row plus a fan-out
	// descriptor, paying page management, serialization and translation once
	// instead of once per DPU. Rank-side byte movement is unchanged.
	Bcast bool
}

func (o Options) withDefaults() Options {
	if o.PrefetchPages == 0 {
		o.PrefetchPages = DefaultPrefetchPages
	}
	if o.BatchPages == 0 {
		o.BatchPages = DefaultBatchPages
	}
	if o.BatchThreshold == 0 {
		o.BatchThreshold = 16 << 10
	}
	if o.PipelineDepth == 0 {
		o.PipelineDepth = DefaultPipelineDepth
	}
	return o
}

// Errors reported by the frontend.
var (
	ErrNotAttached = errors.New("driver: vUPMEM device has no physical rank attached")
	ErrDeviceError = errors.New("driver: device reported failure")
)

// Frontend is one vUPMEM device's guest driver. It implements sdk.Device:
// the guest userspace SDK drives it exactly like a native rank (safe mode
// through the device file), which is the transparency requirement R3.
type Frontend struct {
	id    string
	mem   *hostmem.Memory
	path  *kvm.Path
	tq    *virtio.Queue
	cq    *virtio.Queue
	model cost.Model
	opts  Options

	attached bool
	cfg      virtio.DeviceConfig

	// Scratch guest kernel buffers, allocated once at attach.
	hdrBuf    hostmem.Buffer
	statusBuf hostmem.Buffer
	scratch   matrixScratch
	symBuf    hostmem.Buffer
	// Reusable driver-side scratch: the matrix row slice sendMatrix builds
	// per call, and the broadcast detector's id list and seen set.
	rowScratch []matrixRow
	bcastIDs   []uint32
	bcastSeen  []bool

	cache *prefetchCache
	batch *batchBuffer
	// Pipelined submission window state: the per-chain slots, the chains
	// currently published on the avail ring, and — with batching on — the
	// rotating batch sets whose frozen members back staged flushes.
	pipe      []*pipeSlot
	staged    []stagedChain
	batchSets []*batchBuffer
	// booted records whether the loaded program's per-DPU CI boot sequence
	// has run (cleared by LoadProgram).
	booted bool

	// Registry-backed counters. New binds them into a private registry so
	// a standalone frontend still counts; the VMM rebinds them into the
	// per-VM registry via SetObs, where they carry the device ID as tag.
	rec             *obs.Recorder
	cMessages       *obs.Counter
	cControlRTs     *obs.Counter
	cCacheLookups   *obs.Counter
	cCacheHits      *obs.Counter
	cCacheMisses    *obs.Counter
	cBatchAppends   *obs.Counter
	cBatchFlushes   *obs.Counter
	cBatchFallbacks *obs.Counter
	cBcastCollapsed *obs.Counter
	cBcastRowsSaved *obs.Counter
}

// TestHookBatchClip re-introduces the pre-fix batch clipping bug for
// harness validation: oversized batch records are silently clipped to the
// buffer instead of falling back to the matrix path, corrupting MRAM
// contents without any error. Only conformance tests set this, to prove
// the differential harness catches a planted silent-corruption fault; it
// must never be set outside tests.
var TestHookBatchClip bool

var _ sdk.Device = (*Frontend)(nil)

// New creates the frontend for one vUPMEM device. mem is the guest RAM, path
// the VM's hypervisor transition layer, and tq/cq the device's transferq and
// controlq. The backend must already be wired as the queues' handler.
func New(id string, mem *hostmem.Memory, path *kvm.Path, tq, cq *virtio.Queue, model cost.Model, opts Options) *Frontend {
	f := &Frontend{
		id:    id,
		mem:   mem,
		path:  path,
		tq:    tq,
		cq:    cq,
		model: model,
		opts:  opts.withDefaults(),
	}
	f.SetObs(obs.NewRegistry(), nil)
	return f
}

// SetObs rebinds the frontend's counters into reg (tagged with the device
// ID so per-device values survive aggregation) and attaches the VM's span
// recorder. The VMM calls this during device realization to pool every
// layer into one per-VM registry.
func (f *Frontend) SetObs(reg *obs.Registry, rec *obs.Recorder) {
	tag := "#" + f.id
	f.rec = rec
	f.cMessages = reg.Counter("frontend.messages" + tag)
	f.cControlRTs = reg.Counter("frontend.control.roundtrips" + tag)
	f.cCacheLookups = reg.Counter("frontend.cache.lookups" + tag)
	f.cCacheHits = reg.Counter("frontend.cache.hits" + tag)
	f.cCacheMisses = reg.Counter("frontend.cache.misses" + tag)
	f.cBatchAppends = reg.Counter("frontend.batch.appends" + tag)
	f.cBatchFlushes = reg.Counter("frontend.batch.flushes" + tag)
	f.cBatchFallbacks = reg.Counter("frontend.batch.fallbacks" + tag)
	f.cBcastCollapsed = reg.Counter("frontend.bcast.collapsed" + tag)
	f.cBcastRowsSaved = reg.Counter("frontend.bcast.rows_saved" + tag)
}

// ID reports the device identifier (used as the manager owner string).
func (f *Frontend) ID() string { return f.id }

// Attached reports whether a physical rank is currently linked.
func (f *Frontend) Attached() bool { return f.attached }

// NumDPUs implements sdk.Device (valid after attach).
func (f *Frontend) NumDPUs() int { return int(f.cfg.NumDPUs) }

// MRAMBytes implements sdk.Device.
func (f *Frontend) MRAMBytes() int64 { return int64(f.cfg.MRAMBytes) }

// FrequencyMHz implements sdk.Device.
func (f *Frontend) FrequencyMHz() int { return int(f.cfg.FrequencyMHz) }

// send pushes one request chain through the virtqueue: encode the header,
// trap to the VMM, let the backend process, take the completion IRQ, check
// the status descriptor. When a pipelined window is staged, the request is a
// synchronization point and rides as the window's tail: one kick drains
// everything in submission order. Returns a copy of the device-written
// response payload — the status buffer is reused by the next request, so
// the caller owns the returned slice.
func (f *Frontend) send(req virtio.Request, extra []virtio.Desc, tl *simtime.Timeline) ([]byte, error) {
	n, err := req.Encode(f.hdrBuf.Data)
	if err != nil {
		return nil, err
	}
	descs := make([]virtio.Desc, 0, len(extra)+2)
	descs = append(descs, virtio.Desc{GPA: f.hdrBuf.GPA, Len: uint32(n)})
	descs = append(descs, extra...)
	descs = append(descs, virtio.Desc{GPA: f.statusBuf.GPA, Len: uint32(len(f.statusBuf.Data)), Writable: true})

	f.cMessages.Inc()
	reqID := f.rec.NextRequestID()
	start := tl.Now()
	chain := &virtio.Chain{Descs: descs, ReqID: reqID}
	if len(f.staged) > 0 {
		if err := f.drainWith(chain, tl); err != nil {
			return nil, err
		}
	} else {
		f.path.GuestToVMM(tl)
		if err := f.tq.Submit(chain, tl); err != nil {
			return nil, err
		}
		f.path.VMMToGuest(tl)
	}
	f.rec.Record(obs.Event{
		Name: req.Op.String(), Cat: "guest", TID: obs.LaneGuest,
		Req: reqID, Start: start, Dur: tl.Now() - start,
	})

	status, err := virtio.GetU64(f.statusBuf.Data, 0)
	if err != nil {
		return nil, err
	}
	if uint32(status) != virtio.StatusOK {
		return nil, fmt.Errorf("%w: op %v", ErrDeviceError, req.Op)
	}
	out := make([]byte, len(f.statusBuf.Data)-8)
	copy(out, f.statusBuf.Data[8:])
	return out, nil
}

// Attach links the device to a physical rank through the backend and the
// manager, then performs device initialization: the configuration request
// and the scratch/cache/batch buffer setup (Section 3.2).
func (f *Frontend) Attach(tl *simtime.Timeline) error {
	if f.attached {
		return nil
	}
	if f.hdrBuf.Data == nil {
		var err error
		if f.hdrBuf, err = f.mem.Alloc(256); err != nil {
			return fmt.Errorf("alloc header buffer: %w", err)
		}
		if f.statusBuf, err = f.mem.Alloc(64); err != nil {
			return fmt.Errorf("alloc status buffer: %w", err)
		}
	}
	// Rank attachment goes through the controlq: it synchronizes with the
	// manager rather than moving data.
	if err := f.controlRoundTrip(virtio.OpAttach, tl); err != nil {
		return err
	}

	// Configuration request over the transferq.
	cfgBuf, err := f.mem.Alloc(virtio.ConfigResponseSize)
	if err != nil {
		return fmt.Errorf("alloc config buffer: %w", err)
	}
	f.attached = true // send() below is now legal
	if _, err := f.send(virtio.Request{Op: virtio.OpConfig}, []virtio.Desc{
		{GPA: cfgBuf.GPA, Len: uint32(len(cfgBuf.Data)), Writable: true},
	}, tl); err != nil {
		f.attached = false
		return err
	}
	cfg, err := virtio.DecodeConfig(cfgBuf.Data)
	if err != nil {
		f.attached = false
		return err
	}
	f.cfg = cfg
	return f.setupBuffers()
}

// setupBuffers allocates the serialization scratch, the prefetch cache and
// the batch buffer once the rank geometry is known.
func (f *Frontend) setupBuffers() error {
	nDPUs := int(f.cfg.NumDPUs)
	pagesPerDPU := int((f.cfg.MRAMBytes + hostmem.PageSize - 1) / hostmem.PageSize)

	var err error
	if f.scratch, err = newMatrixScratch(f.mem, nDPUs, pagesPerDPU); err != nil {
		return err
	}
	if f.symBuf, err = f.mem.Alloc(hostmem.PageSize); err != nil {
		return err
	}
	f.rowScratch = make([]matrixRow, 0, nDPUs)
	if f.opts.Bcast {
		f.bcastIDs = make([]uint32, 0, nDPUs)
		f.bcastSeen = make([]bool, nDPUs)
	}
	if f.opts.Prefetch {
		if f.cache, err = newPrefetchCache(f.mem, nDPUs, f.opts.PrefetchPages); err != nil {
			return err
		}
	}
	if f.opts.Batch {
		if f.batch, err = newBatchBuffer(f.mem, nDPUs, f.opts.BatchPages); err != nil {
			return err
		}
	}
	if f.opts.Pipeline {
		if err = f.setupPipeline(); err != nil {
			return err
		}
	}
	return nil
}

// MemoryOverheadBytes reports the frontend's per-DPU extra memory: the
// serialized page table, the prefetch cache and the batch buffer
// (Section 4.1 "Memory Overhead").
func (f *Frontend) MemoryOverheadBytes() int64 {
	if !f.attached {
		return 0
	}
	pagesPerDPU := int64((f.cfg.MRAMBytes + hostmem.PageSize - 1) / hostmem.PageSize)
	total := 8 * pagesPerDPU // page buffer: one u64 GPA per page
	if f.opts.Prefetch {
		total += int64(f.opts.PrefetchPages) * hostmem.PageSize
	}
	if f.opts.Batch {
		sets := int64(1)
		if f.opts.Pipeline {
			// One batch set per window slot keeps flushed pages intact
			// until the drain.
			sets = int64(f.opts.PipelineDepth)
		}
		total += sets * int64(f.opts.BatchPages) * hostmem.PageSize
	}
	if f.opts.Pipeline {
		perSlot := int64(hostmem.PageSize) // staged symbol payload
		if !f.opts.Batch {
			perSlot += int64(f.cfg.NumDPUs) * int64(f.opts.BatchThreshold)
		}
		total += int64(f.opts.PipelineDepth) * perSlot
	}
	return total
}

// controlRoundTrip sends one payload-less request over the controlq and
// checks the status word: the manager-synchronization message shape used by
// attach and detach.
func (f *Frontend) controlRoundTrip(op virtio.Op, tl *simtime.Timeline) error {
	// Control operations synchronize with the manager: drain any staged
	// window first so the device sees every data chain before the sync.
	if err := f.drainPipeline(tl); err != nil {
		return err
	}
	f.cControlRTs.Inc()
	f.cMessages.Inc()
	var hdr [64]byte
	req := virtio.Request{Op: op}
	n, err := req.Encode(hdr[:])
	if err != nil {
		return err
	}
	copy(f.hdrBuf.Data, hdr[:n])
	reqID := f.rec.NextRequestID()
	start := tl.Now()
	f.path.GuestToVMM(tl)
	if err := f.cq.Submit(&virtio.Chain{Descs: []virtio.Desc{
		{GPA: f.hdrBuf.GPA, Len: uint32(n)},
		{GPA: f.statusBuf.GPA, Len: uint32(len(f.statusBuf.Data)), Writable: true},
	}, ReqID: reqID}, tl); err != nil {
		return err
	}
	f.path.VMMToGuest(tl)
	f.rec.Record(obs.Event{
		Name: op.String(), Cat: "guest", TID: obs.LaneGuest,
		Req: reqID, Start: start, Dur: tl.Now() - start,
	})
	if status, err := virtio.GetU64(f.statusBuf.Data, 0); err != nil {
		return err
	} else if uint32(status) != virtio.StatusOK {
		return fmt.Errorf("%w: %v", ErrDeviceError, op)
	}
	return nil
}

// Detach unlinks the physical rank through the controlq — the inverse of
// Attach's manager synchronization, used by the VMM to unwind a
// partially-booked allocation so the manager gets its ranks back. Unlike
// Release it does not require the device to stay usable afterwards.
func (f *Frontend) Detach(tl *simtime.Timeline) error {
	if !f.attached {
		return nil
	}
	// The flush is best-effort: the device is being unlinked, so when it
	// fails (e.g. the physical rank died mid-run) the staged records are
	// dropped rather than wedging the device in the attached state — a
	// device that cannot flush could otherwise never detach, re-attach, or
	// hand its rank back.
	if err := f.flushBatch(tl); err != nil {
		f.dropBatch()
	}
	if err := f.drainPipeline(tl); err != nil {
		// Same best-effort contract: the window was consumed either way,
		// and any frozen batch sets were recycled by the drain.
		f.dropBatch()
	}
	f.cache.invalidate()
	if err := f.controlRoundTrip(virtio.OpRelease, tl); err != nil {
		return err
	}
	f.attached = false
	return nil
}

func (f *Frontend) ensureAttached(tl *simtime.Timeline) error {
	if f.attached {
		return nil
	}
	return f.Attach(tl)
}
