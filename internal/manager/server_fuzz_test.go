package manager

import (
	"bufio"
	"encoding/json"
	"net"
	"strings"
	"testing"
	"time"
)

// FuzzServerLine feeds arbitrary request lines through one server
// connection of a two-pool manager. Nothing may panic, every line must get
// exactly one JSON reply, a release by a rank's holder must succeed, and
// afterwards every ALLO rank must have exactly one non-empty owner: the one
// whose alloc was granted it and who has not released it since.
func FuzzServerLine(f *testing.F) {
	for _, seed := range []string{
		`{"op":"alloc","owner":"a"}` + "\n" + `{"op":"release","owner":"a","rank":0}`,
		`{"op":"alloc","owner":"a"}` + "\n" + `{"op":"release","rank":0}` + "\n" + `{"op":"release","owner":"b","rank":0}`,
		`{"op":"alloc","owner":"a"}` + "\n" + `{"op":"alloc","owner":"b"}` + "\n" + `{"op":"alloc","owner":"c"}`,
		`{"op":"alloc","owner":"a"}` + "\n" + `{"op":"alloc","owner":"a"}` + "\n" + `{"op":"release","owner":"a","rank":0}` + "\n" + `{"op":"release","owner":"a","rank":1}`,
		`{"op":"alloc"}` + "\n" + `{"op":"alloc","owner":""}`,
		`{"op":"states"}` + "\n" + `{"op":"metrics"}` + "\n" + `{"op":"sched"}` + "\n" + `{"op":"cluster"}`,
		`{"op":"release","owner":"a","rank":-1}` + "\n" + `{"op":"release","owner":"a","rank":99}`,
		`{"op":"ALLOC","OWNER":"x"}` + "\n" + `{"op":"alloc","owner":"x","rank":1.5}`,
		"not json\n\n\r\n{}",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in string) {
		if len(in) > 16<<10 {
			return // overlong lines close the connection by design
		}
		mgr := New(testMachine(t, 2), Options{Shards: 2, Retries: 1, RetryTimeout: 100 * time.Microsecond})
		srv := NewServer(mgr)
		client, server := net.Pipe()
		done := make(chan struct{})
		go func() {
			srv.handleConn(server)
			close(done)
		}()
		defer func() {
			_ = client.Close()
			<-done
		}()
		if err := client.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
			t.Fatal(err)
		}
		rd := bufio.NewReader(client)
		roundTrip := func(line string) Response {
			if _, err := client.Write([]byte(line + "\n")); err != nil {
				t.Fatalf("write %q: %v", line, err)
			}
			reply, err := rd.ReadBytes('\n')
			if err != nil {
				t.Fatalf("no reply to %q: %v", line, err)
			}
			var resp Response
			if err := json.Unmarshal(reply, &resp); err != nil {
				t.Fatalf("reply %q to %q is not JSON: %v", reply, line, err)
			}
			return resp
		}

		owned := make(map[int]string) // rank -> owner, per the replies
		for _, line := range strings.Split(in, "\n") {
			resp := roundTrip(line)
			var req Request
			if json.Unmarshal([]byte(strings.TrimSuffix(line, "\r")), &req) != nil {
				continue
			}
			if !resp.OK {
				if holder, held := owned[req.Rank]; req.Op == "release" && held && holder == req.Owner {
					t.Fatalf("%q failed to release its rank %d: %s", req.Owner, req.Rank, resp.Error)
				}
				continue
			}
			switch req.Op {
			case "alloc":
				if prev, ok := owned[resp.Rank]; ok {
					t.Fatalf("rank %d granted to %q while %q holds it", resp.Rank, req.Owner, prev)
				}
				owned[resp.Rank] = req.Owner
			case "release":
				if holder := owned[req.Rank]; holder != req.Owner {
					t.Fatalf("%q released rank %d held by %q", req.Owner, req.Rank, holder)
				}
				delete(owned, req.Rank)
			}
		}
		// A sentinel proves no line produced a second reply: the next reply
		// read must be the sentinel's own.
		if resp := roundTrip(`{"op":"fuzz-sentinel"}`); !strings.Contains(resp.Error, "fuzz-sentinel") {
			t.Fatalf("reply stream out of step: sentinel answered with %+v", resp)
		}

		states, owners := mgr.States(), mgr.Owners()
		for i, st := range states {
			want, held := owned[i]
			if st != StateALLO {
				if held {
					t.Errorf("rank %d is %v, but %q was granted it and never released it", i, st, want)
				}
				continue
			}
			if owners[i] == "" || owners[i] != want {
				t.Errorf("ALLO rank %d owned by %q, want %q", i, owners[i], want)
			}
		}
	})
}
