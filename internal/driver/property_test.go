package driver_test

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/driver"
	"repro/internal/virtio"
	"repro/internal/vmm"
)

// TestRandomSmallWritesProperty drives the full virtualized write path —
// batching, packing, flushing, interleaving — with random sequences of
// small writes and checks that a final bulk read observes exactly what a
// shadow model predicts. This is the end-to-end correctness property behind
// the request-batching optimization.
func TestRandomSmallWritesProperty(t *testing.T) {
	const region = 256 << 10
	rng := rand.New(rand.NewSource(7))
	f := func(ops []uint32) bool {
		vm, _, set := stack(t, vmm.Full())
		shadow := make([]byte, region)
		data := mkBuf(t, vm, 4096, 0)

		for i, op := range ops {
			off := int64(op) % (region - 4096)
			off &^= 7
			size := 8 + int(op>>16)%2048
			size &^= 7
			fill := byte(i + 1)
			for j := 0; j < size; j++ {
				data.Data[j] = fill
			}
			if err := set.CopyToMRAM(1, off, data, size); err != nil {
				t.Logf("write: %v", err)
				return false
			}
			copy(shadow[off:off+int64(size)], data.Data[:size])
		}

		out := mkBuf(t, vm, region, 0)
		if err := set.CopyFromMRAM(1, 0, out, region); err != nil {
			t.Logf("read: %v", err)
			return false
		}
		return bytes.Equal(out.Data[:region], shadow)
	}
	cfg := &quick.Config{Rand: rng, MaxCount: 20, MaxCountScale: 0}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestInterleavedReadsAndWritesProperty mixes small reads between the
// writes, exercising flush-on-read ordering and cache invalidation.
func TestInterleavedReadsAndWritesProperty(t *testing.T) {
	const region = 128 << 10
	rng := rand.New(rand.NewSource(11))
	f := func(ops []uint32) bool {
		vm, _, set := stack(t, vmm.Full())
		shadow := make([]byte, region)
		data := mkBuf(t, vm, 1024, 0)
		out := mkBuf(t, vm, 1024, 0)

		for i, op := range ops {
			off := (int64(op) % (region - 1024)) &^ 7
			size := (8 + int(op>>20)%1016) &^ 7
			if op%3 == 0 {
				// Read and compare against the shadow.
				if err := set.CopyFromMRAM(2, off, out, size); err != nil {
					t.Logf("read: %v", err)
					return false
				}
				if !bytes.Equal(out.Data[:size], shadow[off:off+int64(size)]) {
					t.Logf("stale read at %d+%d after op %d", off, size, i)
					return false
				}
			} else {
				fill := byte(i*3 + 1)
				for j := 0; j < size; j++ {
					data.Data[j] = fill
				}
				if err := set.CopyToMRAM(2, off, data, size); err != nil {
					t.Logf("write: %v", err)
					return false
				}
				copy(shadow[off:off+int64(size)], data.Data[:size])
			}
		}
		return true
	}
	cfg := &quick.Config{Rand: rng, MaxCount: 20}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestRequestHeaderRoundTripProperty round-trips the virtio request header
// through Encode/DecodeRequest for every operation code with randomized
// addressing fields and symbol names, including the sentinel values
// (BroadcastDPU, BatchSentinel) the driver relies on. The wire header is
// the one contract shared by guest driver and device backend, so any
// asymmetry here is a cross-layer corruption bug.
func TestRequestHeaderRoundTripProperty(t *testing.T) {
	ops := []virtio.Op{
		virtio.OpConfig, virtio.OpCI, virtio.OpLoadProgram, virtio.OpLaunch,
		virtio.OpWriteRank, virtio.OpReadRank, virtio.OpSymWrite,
		virtio.OpSymRead, virtio.OpRelease, virtio.OpAttach,
	}
	rng := rand.New(rand.NewSource(23))
	symbols := []string{"", "x", "dpu_mram_heap_pointer_name", string(make([]byte, 255))}
	f := func(opSel uint8, dpu uint32, mask, off, length uint64, symSel uint8, slack uint8) bool {
		r := virtio.Request{
			Op:      ops[int(opSel)%len(ops)],
			DPU:     dpu,
			DPUMask: mask,
			Offset:  off,
			Length:  length,
			Symbol:  symbols[int(symSel)%len(symbols)],
		}
		switch opSel % 4 {
		case 0:
			r.DPU = virtio.BroadcastDPU
		case 1:
			r.Offset = virtio.BatchSentinel
		}
		buf := make([]byte, r.EncodedSize()+int(slack))
		n, err := r.Encode(buf)
		if err != nil {
			t.Logf("encode: %v", err)
			return false
		}
		if n != r.EncodedSize() {
			t.Logf("encode wrote %d bytes, EncodedSize says %d", n, r.EncodedSize())
			return false
		}
		got, err := virtio.DecodeRequest(buf)
		if err != nil {
			t.Logf("decode: %v", err)
			return false
		}
		if got != r {
			t.Logf("round trip mismatch: sent %+v, got %+v", r, got)
			return false
		}
		// A header truncated below the fixed size must be rejected, never
		// misparsed.
		if _, err := virtio.DecodeRequest(buf[:n/2]); n/2 < 36 && err == nil {
			t.Logf("truncated header of %d bytes decoded without error", n/2)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{Rand: rng, MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// TestBatchBoundaryRecordSizesProperty writes records whose packed size
// straddles every interesting boundary of a one-page batch buffer — just
// fitting, exactly filling, one record-alignment step too big, and far too
// big — and checks that readback is byte-exact and that each oversized
// record took the counted fallback path instead of being clipped. This is
// the regression property for the batch-clip data-loss bug.
func TestBatchBoundaryRecordSizesProperty(t *testing.T) {
	// One 4096-byte page per DPU: records carry a 16-byte header padded to
	// 8 bytes, so 4080 is the largest payload that fits and 4088 the first
	// that must fall back.
	const capacity = 4096
	const recordHeader = 16 // [mramOff u64, len u64] per packed record
	boundary := []int{8, 16, 4064, 4072, 4080, 4088, 4096, 6000, 8192}
	rng := rand.New(rand.NewSource(31))
	f := func(ops []uint16) bool {
		vm, front, set := stack(t, vmm.Options{
			Batch:  true,
			Driver: driver.Options{BatchPages: 1},
		})
		const region = 64 << 10
		shadow := make([]byte, region)
		data := mkBuf(t, vm, boundary[len(boundary)-1], 0)

		wantFallbacks := int64(0)
		for i, op := range ops {
			size := boundary[int(op)%len(boundary)]
			off := (int64(op>>4) * 8) % (region - int64(size))
			if size+recordHeader > capacity {
				wantFallbacks++
			}
			fill := byte(i*5 + 1)
			for j := 0; j < size; j++ {
				data.Data[j] = fill
			}
			if err := set.CopyToMRAM(3, off, data, size); err != nil {
				t.Logf("write size %d: %v", size, err)
				return false
			}
			copy(shadow[off:off+int64(size)], data.Data[:size])
		}

		out := mkBuf(t, vm, region, 0)
		if err := set.CopyFromMRAM(3, 0, out, region); err != nil {
			t.Logf("read: %v", err)
			return false
		}
		if !bytes.Equal(out.Data[:region], shadow) {
			for i := range shadow {
				if out.Data[i] != shadow[i] {
					t.Logf("readback diverges at byte %d: got %#x want %#x", i, out.Data[i], shadow[i])
					break
				}
			}
			return false
		}
		if st := stats(vm, front); st.BatchFallbacks != wantFallbacks {
			t.Logf("fallbacks = %d, want %d", st.BatchFallbacks, wantFallbacks)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{Rand: rng, MaxCount: 15}); err != nil {
		t.Error(err)
	}
}
