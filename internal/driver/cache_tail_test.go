package driver_test

import (
	"testing"

	"repro/internal/driver"
	"repro/internal/hostmem"
	"repro/internal/vmm"
)

// TestPrefetchCacheTruncatedTailWindow: a fill near the end of MRAM fetches
// a truncated window, and the cache must remember the per-DPU window length.
// Before the fix, hit() assumed every window spanned the full cache size, so
// a read reaching into the unfetched tail was served stale bytes from an
// older fill instead of being handled as a miss.
func TestPrefetchCacheTruncatedTailWindow(t *testing.T) {
	vm, front, set := stack(t, vmm.Options{Prefetch: true})
	mram := front.MRAMBytes()
	page := int64(hostmem.PageSize)
	win := int64(driver.DefaultPrefetchPages) * page

	// Seed the tail of MRAM and prime the cache with a full window ending
	// exactly at the MRAM end, so the cache buffer's tail holds real data.
	old := mkBuf(t, vm, int(page), 0xAB)
	if err := set.CopyToMRAM(0, mram-page, old, int(page)); err != nil {
		t.Fatal(err)
	}
	probe := mkBuf(t, vm, int(page), 0)
	if err := set.CopyFromMRAM(0, mram-win, probe, int(page)); err != nil {
		t.Fatal(err)
	}

	// Overwrite the last page (invalidating the cache) and re-read at
	// MRAMBytes - PageSize: the refill window is truncated to one page.
	fresh := mkBuf(t, vm, int(page), 0xCD)
	if err := set.CopyToMRAM(0, mram-page, fresh, int(page)); err != nil {
		t.Fatal(err)
	}
	got := mkBuf(t, vm, int(page), 0)
	if err := set.CopyFromMRAM(0, mram-page, got, int(page)); err != nil {
		t.Fatal(err)
	}
	for i, b := range got.Data {
		if b != 0xCD {
			t.Fatalf("byte %d = %#x after truncated refill, want 0xCD", i, b)
		}
	}

	// A read overrunning MRAM must fail. With the full-size window
	// assumption the cache claimed a hit and silently served the stale
	// bytes left over from the earlier full fill.
	over := mkBuf(t, vm, int(2*page), 0)
	if err := set.CopyFromMRAM(0, mram-page, over, int(2*page)); err == nil {
		t.Fatal("read past MRAM served from the stale cache tail; want an error")
	}

	// Reads inside the truncated window still hit.
	hitsBefore := stats(vm, front).CacheHits
	again := mkBuf(t, vm, int(page), 0)
	if err := set.CopyFromMRAM(0, mram-page, again, int(page)); err != nil {
		t.Fatal(err)
	}
	if stats(vm, front).CacheHits <= hitsBefore {
		t.Error("repeat read inside the truncated window must hit the cache")
	}
	for i, b := range again.Data {
		if b != 0xCD {
			t.Fatalf("cached byte %d = %#x, want 0xCD", i, b)
		}
	}
}
