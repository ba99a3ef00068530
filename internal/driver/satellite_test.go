package driver_test

import (
	"errors"
	"testing"

	"repro/internal/driver"
	"repro/internal/obs"
	"repro/internal/virtio"
	"repro/internal/vmm"
)

// launchFault builds a chain fault that calls fn on every OpLaunch chain
// and leaves everything else untouched.
func launchFault(vm *vmm.VM, fn func(c *virtio.Chain) error) virtio.ChainFault {
	return func(queue string, c *virtio.Chain) error {
		if len(c.Descs) == 0 {
			return nil
		}
		hdr, err := vm.Memory().Slice(c.Descs[0].GPA, int(c.Descs[0].Len))
		if err != nil {
			return nil
		}
		req, err := virtio.DecodeRequest(hdr)
		if err != nil || req.Op != virtio.OpLaunch {
			return nil
		}
		return fn(c)
	}
}

// TestFailedLaunchRepaysBootSequence: a launch the device rejected must not
// leave the chips marked booted — the retry has to pay the full per-chip CI
// boot sequence again, not the cheap relaunch restart. Before the fix the
// frontend set its booted flag before the OpLaunch send, so a faulted first
// launch made the retry as cheap as a relaunch.
func TestFailedLaunchRepaysBootSequence(t *testing.T) {
	vm, front, set := stack(t, vmm.Options{})
	if err := set.Load("noop"); err != nil {
		t.Fatal(err)
	}
	tripped := false
	vm.InjectChainFault(launchFault(vm, func(c *virtio.Chain) error {
		if tripped {
			return nil
		}
		tripped = true
		return errors.New("injected transport fault on launch")
	}))
	if err := set.Launch(); err == nil {
		t.Fatal("launch must fail under the injected chain fault")
	}
	vm.InjectChainFault(nil)

	before := stats(vm, front).Messages
	if err := set.Launch(); err != nil {
		t.Fatal(err)
	}
	retry := stats(vm, front).Messages - before
	before = stats(vm, front).Messages
	if err := set.Launch(); err != nil {
		t.Fatal(err)
	}
	relaunch := stats(vm, front).Messages - before
	if retry <= relaunch {
		t.Errorf("retry after a failed launch sent %d messages, a relaunch %d: the failed launch left the chips marked booted", retry, relaunch)
	}
}

// TestLaunchStartShortResponseIsError: an asynchronous launch whose
// response payload is too short to carry the completion instant must be an
// explicit device error. Before the fix the frontend returned completion 0
// with no error, so the guest slept nothing and treated a still-running
// rank as done.
func TestLaunchStartShortResponseIsError(t *testing.T) {
	vm, front, set := stack(t, vmm.Options{})
	if err := set.Load("noop"); err != nil {
		t.Fatal(err)
	}
	vm.InjectChainFault(launchFault(vm, func(c *virtio.Chain) error {
		// Truncate the status descriptor below the 16 bytes the completion
		// report needs: the device writes StatusOK but no completion time.
		c.Descs[len(c.Descs)-1].Len = 8
		return nil
	}))
	defer vm.InjectChainFault(nil)
	completion, err := front.LaunchStart([]int{0}, vm.Timeline())
	if err == nil {
		t.Fatalf("garbled launch response returned completion %v with no error", completion)
	}
	if !errors.Is(err, driver.ErrDeviceError) {
		t.Errorf("want ErrDeviceError, got %v", err)
	}
}

// TestReleaseRidesControlQueue: releasing the rank synchronizes with the
// manager, so like attach/detach it must travel over the controlq. Before
// the fix it rode the transferq, skewing the per-queue chain counters the
// conformance identities link across layers.
func TestReleaseRidesControlQueue(t *testing.T) {
	vm, _, set := stack(t, vmm.Full())
	before := obs.Aggregate(vm.Metrics())
	if err := set.Free(); err != nil {
		t.Fatal(err)
	}
	after := obs.Aggregate(vm.Metrics())
	if got := after["virtio.controlq.chains"] - before["virtio.controlq.chains"]; got != 1 {
		t.Errorf("release submitted %d controlq chains, want 1", got)
	}
	if rts, cq := after["frontend.control.roundtrips"], after["virtio.controlq.chains"]; rts != cq {
		t.Errorf("frontend.control.roundtrips=%d != virtio.controlq.chains=%d", rts, cq)
	}
}
