package manager

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// The wire protocol of the standalone manager daemon: newline-delimited JSON
// over a UNIX domain socket, which is how VMs (Firecracker processes) reach
// the manager in the real system (Section 3.5).

// Request is one client message.
type Request struct {
	// Op is "alloc", "release", "states", "metrics", "sched" or "cluster".
	Op string `json:"op"`
	// Owner identifies the requesting vUPMEM device for "alloc", and the
	// holder a "release" must match.
	Owner string `json:"owner,omitempty"`
	// Rank is the rank index for "release".
	Rank int `json:"rank,omitempty"`
}

// Response is one server message.
type Response struct {
	OK        bool             `json:"ok"`
	Error     string           `json:"error,omitempty"`
	Rank      int              `json:"rank,omitempty"`
	LatencyNS int64            `json:"latencyNs,omitempty"`
	States    []string         `json:"states,omitempty"`
	Metrics   map[string]int64 `json:"metrics,omitempty"`
	Sched     []OwnerSched     `json:"sched,omitempty"`
	Cluster   *ClusterStats    `json:"cluster,omitempty"`
}

// Server exposes a Manager over a listener. The prototype's thread pool
// (8 worker threads by default) bounds in-flight *requests*, not
// connections: every connection gets its own reader goroutine, and a request
// occupies a pool slot only while it is actively processed. An allocation
// that parks in the manager's FIFO waiter queue hands its slot back for the
// duration of the wait, so any number of idle persistent clients — or
// blocked allocations — can coexist with a small pool.
type Server struct {
	mgr *Manager

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]struct{}
	wg       sync.WaitGroup
	slots    chan struct{}
	closed   bool
}

// NewServer wraps a manager for serving.
func NewServer(mgr *Manager) *Server {
	return &Server{
		mgr:   mgr,
		conns: make(map[net.Conn]struct{}),
		slots: make(chan struct{}, mgr.opts.Threads),
	}
}

// Serve accepts connections until Shutdown. It blocks; run it from a
// dedicated goroutine.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errors.New("manager: server already shut down")
	}
	s.listener = l
	s.mu.Unlock()
	for {
		conn, err := l.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return fmt.Errorf("accept: %w", err)
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			s.handleConn(conn)
		}()
	}
}

// Shutdown stops accepting, closes live connections and waits for their
// handlers. Blocked allocations unwind on their own retry budget; for a
// prompt shutdown close the Manager first (see cmd/vpim-manager).
func (s *Server) Shutdown() {
	s.mu.Lock()
	s.closed = true
	l := s.listener
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	if l != nil {
		_ = l.Close()
	}
	for _, c := range conns {
		_ = c.Close()
	}
	s.wg.Wait()
}

func (s *Server) handleConn(conn net.Conn) {
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		_ = conn.Close()
	}()
	scanner := bufio.NewScanner(conn)
	scanner.Buffer(make([]byte, 64<<10), 64<<10)
	enc := json.NewEncoder(conn)
	for scanner.Scan() {
		var req Request
		if err := json.Unmarshal(scanner.Bytes(), &req); err != nil {
			// One malformed line must not kill a persistent client: reply
			// with the error and keep scanning.
			if enc.Encode(Response{Error: fmt.Sprintf("bad request: %v", err)}) != nil {
				return
			}
			continue
		}
		s.slots <- struct{}{} // request-pool slot
		resp := s.dispatch(req)
		<-s.slots
		if err := enc.Encode(resp); err != nil {
			return
		}
	}
	// The scan loop also exits on a scanner error — most notably a request
	// line exceeding the buffer (bufio.ErrTooLong). Dropping the connection
	// silently leaves the client blocked on a reply it will never get; tell
	// it what happened before closing, mirroring the malformed-JSON path.
	if err := scanner.Err(); err != nil {
		_ = enc.Encode(Response{Error: fmt.Sprintf("bad request: %v", err)})
	}
}

func (s *Server) dispatch(req Request) Response {
	switch req.Op {
	case "alloc":
		if req.Owner == "" {
			// An ownerless rank could never be released again.
			return Response{Error: "alloc needs an owner"}
		}
		// While the allocation is parked in the manager's FIFO queue the
		// request slot is handed back, so waiting allocations cannot starve
		// the pool (releases must keep flowing to wake them).
		rank, wait, ck, err := s.mgr.alloc(req.Owner, allocHooks{
			park:   func() { <-s.slots },
			unpark: func() { s.slots <- struct{}{} },
		})
		latency := wait + ck
		if err != nil {
			return Response{Error: err.Error(), LatencyNS: int64(latency)}
		}
		return Response{OK: true, Rank: rank.Index(), LatencyNS: int64(latency)}
	case "release":
		rank, ok := s.mgr.RankByIndex(req.Rank)
		if !ok {
			return Response{Error: fmt.Sprintf("unknown rank %d", req.Rank)}
		}
		if err := s.mgr.ReleaseOwned(req.Owner, rank); err != nil {
			return Response{Error: err.Error()}
		}
		return Response{OK: true}
	case "states":
		states := s.mgr.States()
		out := make([]string, len(states))
		for i, st := range states {
			out[i] = st.String()
		}
		return Response{OK: true, States: out}
	case "metrics":
		return Response{OK: true, Metrics: s.mgr.Metrics()}
	case "sched":
		return Response{OK: true, Sched: s.mgr.Sched()}
	case "cluster":
		st := s.mgr.Stats()
		return Response{OK: true, Cluster: &st}
	default:
		return Response{Error: fmt.Sprintf("unknown op %q", req.Op)}
	}
}

// DialOptions tunes the client's transient-failure handling. Shard
// failover restarts the daemon's listener in place, so a client that gives
// up on the first dial or read error turns every failover into a spurious
// tenant error; bounded retry with backoff rides the gap out.
type DialOptions struct {
	// Retries is the total attempt budget for a dial or a round trip
	// (including the first attempt). 0 selects 3.
	Retries int
	// Backoff is the pause before each re-attempt, growing linearly
	// (backoff, 2*backoff, ...). 0 selects 10ms.
	Backoff time.Duration
}

func (o DialOptions) withDefaults() DialOptions {
	if o.Retries == 0 {
		o.Retries = 3
	}
	if o.Backoff == 0 {
		o.Backoff = 10 * time.Millisecond
	}
	return o
}

// Client talks to a manager daemon over its socket. A transient dial or
// read failure is retried with backoff on a fresh connection (bounded by
// DialOptions), which gives requests at-least-once semantics: a retried
// "alloc" may be granted twice on the daemon, where the same-owner reuse
// path coalesces the duplicate. Idempotent verbs retry safely.
type Client struct {
	mu      sync.Mutex
	network string
	addr    string
	opts    DialOptions
	conn    net.Conn
	enc     *json.Encoder
	read    *bufio.Reader
}

// Dial connects to the manager socket with default retry/backoff.
func Dial(network, addr string) (*Client, error) {
	return DialWith(network, addr, DialOptions{})
}

// DialWith connects to the manager socket, retrying transient dial
// failures per opts (a daemon mid-restart refuses connections briefly).
func DialWith(network, addr string, opts DialOptions) (*Client, error) {
	c := &Client{network: network, addr: addr, opts: opts.withDefaults()}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.redialLocked(); err != nil {
		return nil, err
	}
	return c, nil
}

// redialLocked (re)establishes the connection, consuming the full retry
// budget. Call with c.mu held.
func (c *Client) redialLocked() error {
	if c.conn != nil {
		_ = c.conn.Close()
		c.conn = nil
	}
	var lastErr error
	for attempt := 0; attempt < c.opts.Retries; attempt++ {
		if attempt > 0 {
			time.Sleep(time.Duration(attempt) * c.opts.Backoff)
		}
		conn, err := net.Dial(c.network, c.addr)
		if err != nil {
			lastErr = err
			continue
		}
		c.conn = conn
		c.enc = json.NewEncoder(conn)
		c.read = bufio.NewReaderSize(conn, 64<<10)
		return nil
	}
	return fmt.Errorf("dial manager (%d attempts): %w", c.opts.Retries, lastErr)
}

// Close releases the connection.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn == nil {
		return nil
	}
	err := c.conn.Close()
	c.conn = nil
	return err
}

// roundTrip sends one request and reads one reply, retrying transient
// transport failures on a fresh connection. The final error always wraps
// the underlying transport error (io.EOF when the server closed mid-reply,
// not a synthetic "connection closed"), so callers can errors.Is against
// the real cause.
func (c *Client) roundTrip(req Request) (Response, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var lastErr error
	for attempt := 0; attempt < c.opts.Retries; attempt++ {
		if attempt > 0 {
			time.Sleep(time.Duration(attempt) * c.opts.Backoff)
		}
		if c.conn == nil {
			if err := c.redialLocked(); err != nil {
				lastErr = err
				continue
			}
		}
		resp, err := c.attemptLocked(req)
		if err == nil {
			return resp, nil
		}
		lastErr = err
		// The connection is in an unknown state (half-written request,
		// partial reply): drop it so the next attempt starts clean.
		_ = c.conn.Close()
		c.conn = nil
	}
	return Response{}, fmt.Errorf("manager: round trip failed after %d attempts: %w", c.opts.Retries, lastErr)
}

// attemptLocked performs one send+receive on the live connection.
func (c *Client) attemptLocked(req Request) (Response, error) {
	if err := c.enc.Encode(req); err != nil {
		return Response{}, fmt.Errorf("send: %w", err)
	}
	line, err := c.read.ReadBytes('\n')
	if err != nil {
		// Surface the transport error itself — a clean server close is
		// io.EOF here, which the caller may legitimately match on.
		return Response{}, fmt.Errorf("receive: connection closed mid-reply: %w", err)
	}
	var resp Response
	if err := json.Unmarshal(line, &resp); err != nil {
		return Response{}, fmt.Errorf("decode: %w", err)
	}
	return resp, nil
}

// call is roundTrip that also turns an error reply into an error.
func (c *Client) call(req Request) (Response, error) {
	resp, err := c.roundTrip(req)
	if err == nil && !resp.OK {
		err = errors.New(resp.Error)
	}
	return resp, err
}

// Alloc requests a rank for owner; it returns the rank index and the
// modeled allocation latency. The call blocks while the daemon's manager
// holds the request in its FIFO waiter queue.
func (c *Client) Alloc(owner string) (int, time.Duration, error) {
	resp, err := c.call(Request{Op: "alloc", Owner: owner})
	if err != nil {
		return 0, time.Duration(resp.LatencyNS), err
	}
	return resp.Rank, time.Duration(resp.LatencyNS), nil
}

// Release returns owner's rank by index. The daemon refuses to release a
// rank owner does not hold.
func (c *Client) Release(owner string, rank int) error {
	_, err := c.call(Request{Op: "release", Owner: owner, Rank: rank})
	return err
}

// States fetches the rank table states.
func (c *Client) States() ([]string, error) {
	resp, err := c.call(Request{Op: "states"})
	return resp.States, err
}

// Metrics fetches the daemon's counter snapshot.
func (c *Client) Metrics() (map[string]int64, error) {
	resp, err := c.call(Request{Op: "metrics"})
	return resp.Metrics, err
}

// Sched fetches per-owner residency and preemption statistics.
func (c *Client) Sched() ([]OwnerSched, error) {
	resp, err := c.call(Request{Op: "sched"})
	return resp.Sched, err
}

// Cluster fetches the daemon's pool topology and routing counters (one
// row for an unsharded daemon).
func (c *Client) Cluster() (ClusterStats, error) {
	resp, err := c.call(Request{Op: "cluster"})
	if err == nil && resp.Cluster == nil {
		err = errors.New("manager: empty cluster reply")
	}
	if err != nil {
		return ClusterStats{}, err
	}
	return *resp.Cluster, nil
}
