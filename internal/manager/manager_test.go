package manager

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/cost"
	"repro/internal/pim"
)

func testMachine(t *testing.T, ranks int) *pim.Machine {
	t.Helper()
	m, err := pim.NewMachine(pim.MachineConfig{
		Ranks: ranks,
		Rank:  pim.RankConfig{DPUs: 4, MRAMBytes: 1 << 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestLifecycle(t *testing.T) {
	mgr := New(testMachine(t, 2), Options{})
	for i, st := range mgr.States() {
		if st != StateNAAV {
			t.Fatalf("rank %d starts %v, want NAAV", i, st)
		}
	}
	rank, latency, err := mgr.Alloc("vmA")
	if err != nil {
		t.Fatal(err)
	}
	if latency != 36*time.Millisecond {
		t.Errorf("NAAV allocation latency = %v, want the paper's 36ms", latency)
	}
	if mgr.States()[rank.Index()] != StateALLO {
		t.Error("allocated rank must be ALLO")
	}
	if mgr.Owners()[rank.Index()] != "vmA" {
		t.Error("owner not recorded")
	}
	if err := mgr.Release(rank); err != nil {
		t.Fatal(err)
	}
	if mgr.States()[rank.Index()] != StateNANA {
		t.Error("released rank must be NANA until reset")
	}
	if d := mgr.ProcessResets(); d <= 0 {
		t.Error("reset must take modeled time")
	}
	if mgr.States()[rank.Index()] != StateNAAV {
		t.Error("reset rank must return to NAAV")
	}
	if mgr.Resets() != 1 {
		t.Errorf("resets = %d", mgr.Resets())
	}
}

// TestSameOwnerReuse checks the optimization: a NANA rank goes back to its
// previous owner without a reset (Section 3.5).
func TestSameOwnerReuse(t *testing.T) {
	mgr := New(testMachine(t, 1), Options{})
	rank, _, err := mgr.Alloc("vmA")
	if err != nil {
		t.Fatal(err)
	}
	if err := rank.WriteDPU(0, 0, []byte{42}); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Release(rank); err != nil {
		t.Fatal(err)
	}
	again, latency, err := mgr.Alloc("vmA")
	if err != nil {
		t.Fatal(err)
	}
	if again != rank {
		t.Error("same owner should get the same NANA rank back")
	}
	if latency != 36*time.Millisecond {
		t.Errorf("reuse latency = %v: must not include a reset", latency)
	}
	got := make([]byte, 1)
	if err := rank.ReadDPU(0, 0, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 42 {
		t.Error("reuse must preserve content (no reset ran)")
	}
	if mgr.Resets() != 0 {
		t.Error("no reset should have happened")
	}
}

// TestForeignNANAResets checks isolation: another VM taking a dirty rank
// waits for (and gets) a reset — requirement R2.
func TestForeignNANAResets(t *testing.T) {
	mgr := New(testMachine(t, 1), Options{})
	rank, _, err := mgr.Alloc("vmA")
	if err != nil {
		t.Fatal(err)
	}
	if err := rank.WriteDPU(0, 0, []byte{42}); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Release(rank); err != nil {
		t.Fatal(err)
	}
	again, latency, err := mgr.Alloc("vmB")
	if err != nil {
		t.Fatal(err)
	}
	if latency <= 36*time.Millisecond {
		t.Errorf("foreign NANA latency = %v: must include the reset", latency)
	}
	got := make([]byte, 1)
	if err := again.ReadDPU(0, 0, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 0 {
		t.Error("vmB must not see vmA's data")
	}
}

func TestRoundRobin(t *testing.T) {
	mgr := New(testMachine(t, 3), Options{})
	a, _, _ := mgr.Alloc("a")
	b, _, _ := mgr.Alloc("b")
	c, _, _ := mgr.Alloc("c")
	if a.Index() == b.Index() || b.Index() == c.Index() || a.Index() == c.Index() {
		t.Error("round robin must hand out distinct ranks")
	}
}

func TestExhaustion(t *testing.T) {
	mgr := New(testMachine(t, 1), Options{Retries: 2, RetryTimeout: 10 * time.Millisecond, Backoff: 2})
	if _, _, err := mgr.Alloc("a"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, waited, err := mgr.Alloc("b")
	elapsed := time.Since(start)
	if !errors.Is(err, ErrNoRanks) {
		t.Fatalf("want ErrNoRanks, got %v", err)
	}
	// Two poll intervals with 2x backoff: 10ms + 20ms, charged honestly.
	if waited != 30*time.Millisecond {
		t.Errorf("abandon latency = %v, want the 30ms actually slept", waited)
	}
	// The request must really have waited, not just been billed.
	if elapsed < 25*time.Millisecond {
		t.Errorf("abandoned alloc returned after %v: it never waited", elapsed)
	}
}

func TestReleaseErrors(t *testing.T) {
	mach := testMachine(t, 1)
	mgr := New(mach, Options{})
	rank, _ := mach.Rank(0)
	if err := mgr.Release(rank); !errors.Is(err, ErrNotAllocated) {
		t.Errorf("releasing a NAAV rank: %v", err)
	}
	other := pim.NewRank(99, pim.RankConfig{DPUs: 1, MRAMBytes: 1 << 20}, cost.Default())
	if err := mgr.Release(other); !errors.Is(err, ErrNotAllocated) {
		t.Errorf("releasing a foreign rank: %v", err)
	}
}

func TestNativeCoexistence(t *testing.T) {
	mgr := New(testMachine(t, 2), Options{Retries: 2, RetryTimeout: 2 * time.Millisecond})
	ranks, err := mgr.AcquireNative(6) // needs both 4-DPU ranks
	if err != nil {
		t.Fatal(err)
	}
	if len(ranks) != 2 {
		t.Fatalf("acquired %d ranks, want 2", len(ranks))
	}
	if _, _, err := mgr.Alloc("vm"); !errors.Is(err, ErrNoRanks) {
		t.Error("VM allocation must see native usage")
	}
	mgr.ReleaseNative(ranks[0])
	if _, _, err := mgr.Alloc("vm"); err != nil {
		t.Errorf("allocation after native release: %v", err)
	}
}

func TestNativeRollback(t *testing.T) {
	mgr := New(testMachine(t, 2), Options{})
	if _, err := mgr.AcquireNative(100); !errors.Is(err, ErrNoRanks) {
		t.Fatal("oversized native acquire must fail")
	}
	for _, st := range mgr.States() {
		if st != StateNAAV {
			t.Error("failed acquire must roll back")
		}
	}
}

func TestStateString(t *testing.T) {
	if StateNAAV.String() != "NAAV" || StateALLO.String() != "ALLO" || StateNANA.String() != "NANA" || StateQUAR.String() != "QUAR" {
		t.Error("state names wrong")
	}
	if RankState(9).String() != "state(9)" {
		t.Error("unknown state format")
	}
}

// TestServer exercises the UNIX-socket protocol end to end over one pool
// and over two: both shapes go through the same server path.
func TestServer(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) { testServer(t, shards) })
	}
}

func testServer(t *testing.T, shards int) {
	mgr := New(testMachine(t, 2), Options{Shards: shards})
	srv := NewServer(mgr)
	sock := filepath.Join(t.TempDir(), "mgr.sock")
	l, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()

	// One client per tenant. Shutdown waits for in-flight connections, so
	// every client is closed first.
	var clients []*Client
	dial := func() *Client {
		c, err := Dial("unix", sock)
		if err != nil {
			t.Fatal(err)
		}
		clients = append(clients, c)
		return c
	}
	closeClients := func() {
		for _, c := range clients {
			_ = c.Close()
		}
		clients = nil
	}
	defer closeClients()
	a, b, c := dial(), dial(), dial()

	rank, latency, err := a.Alloc("vmA")
	if err != nil {
		t.Fatal(err)
	}
	if latency != 36*time.Millisecond {
		t.Errorf("latency over the wire = %v", latency)
	}
	states, err := a.States()
	if err != nil {
		t.Fatal(err)
	}
	if states[rank] != "ALLO" {
		t.Errorf("state[%d] = %s", rank, states[rank])
	}

	// Release is owner-bound: B, holding a rank of its own, cannot free
	// A's, and neither can an ownerless request.
	bRank, _, err := b.Alloc("vmB")
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Release("vmB", rank); err == nil {
		t.Error("B released A's rank")
	}
	if err := b.Release("", rank); err == nil {
		t.Error("an ownerless release freed A's rank")
	}
	if got := mgr.Owners()[rank]; mgr.States()[rank] != StateALLO || got != "vmA" {
		t.Errorf("after foreign releases rank %d is %v owned by %q, want ALLO to vmA", rank, mgr.States()[rank], got)
	}
	if err := b.Release("vmB", bRank); err != nil {
		t.Fatal(err)
	}
	cRank, _, err := c.Alloc("vmC")
	if err != nil {
		t.Fatal(err)
	}
	if cRank == rank {
		t.Errorf("C was granted A's rank %d", rank)
	}

	if err := a.Release("vmA", rank); err != nil {
		t.Fatal(err)
	}
	states, err = a.States()
	if err != nil {
		t.Fatal(err)
	}
	if states[rank] != "NANA" {
		t.Errorf("state after release = %s", states[rank])
	}
	if err := a.Release("vmA", 99); err == nil {
		t.Error("releasing unknown rank must fail")
	}

	// The cluster verb answers for every shape: one row per pool. With
	// several pools the three tenants were placed once each; one pool
	// routes nothing.
	st, err := a.Cluster()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Shards) != shards {
		t.Fatalf("cluster verb reports %d pools, want %d", len(st.Shards), shards)
	}
	var placed int64
	resident := 0
	for _, si := range st.Shards {
		placed += si.Placements
		resident += si.Resident
	}
	wantPlaced := int64(3)
	if shards == 1 {
		wantPlaced = 0
	}
	if st.Placements != wantPlaced || placed != wantPlaced {
		t.Errorf("placements = %d (per pool %d), want %d", st.Placements, placed, wantPlaced)
	}
	if resident != 1 {
		t.Errorf("resident ranks = %d, want 1 (C's)", resident)
	}

	// One owner holding both ranks releases both. With two pools the
	// second grant comes from the other pool (the first is full), so each
	// release must reach the pool that holds its rank.
	if err := c.Release("vmC", cRank); err != nil {
		t.Fatal(err)
	}
	var dRanks []int
	for i := 0; i < 2; i++ {
		r, _, err := c.Alloc("vmD")
		if err != nil {
			t.Fatal(err)
		}
		dRanks = append(dRanks, r)
	}
	for _, r := range dRanks {
		if err := c.Release("vmD", r); err != nil {
			t.Errorf("vmD releasing its rank %d: %v", r, err)
		}
	}
	for i, st := range mgr.States() {
		if st == StateALLO {
			t.Errorf("rank %d still ALLO to %q after every release", i, mgr.Owners()[i])
		}
	}

	closeClients()
	srv.Shutdown()
	if err := <-done; err != nil {
		t.Errorf("Serve returned %v", err)
	}
}

// TestServerOverlongLine sends a request line past the scanner's 64 KiB
// limit: the server must answer with an error reply before closing the
// connection instead of hanging up silently and leaving the client to
// diagnose an EOF.
func TestServerOverlongLine(t *testing.T) {
	mgr := New(testMachine(t, 1), Options{})
	srv := NewServer(mgr)
	sock := filepath.Join(t.TempDir(), "mgr.sock")
	l, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()

	conn, err := net.Dial("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	huge := make([]byte, 80<<10)
	for i := range huge {
		huge[i] = 'x'
	}
	if _, err := conn.Write(append(huge, '\n')); err != nil {
		t.Fatal(err)
	}
	var resp Response
	if err := json.NewDecoder(conn).Decode(&resp); err != nil {
		t.Fatalf("no reply for an overlong line: %v", err)
	}
	if resp.OK || resp.Error == "" {
		t.Errorf("overlong line must produce an error reply, got %+v", resp)
	}
	_ = conn.Close()
	srv.Shutdown()
	if err := <-done; err != nil {
		t.Errorf("Serve returned %v", err)
	}
}

func TestObserver(t *testing.T) {
	mgr := New(testMachine(t, 1), Options{})
	obs := mgr.StartObserver(time.Millisecond)
	defer obs.Stop()

	rank, _, err := mgr.Alloc("vm")
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.Release(rank); err != nil {
		t.Fatal(err)
	}
	// The observer erases the NANA rank in the background.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if mgr.States()[0] == StateNAAV {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("observer never reset the rank: state %v", mgr.States()[0])
}
