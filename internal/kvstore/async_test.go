package kvstore

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"
)

func startAsync(t *testing.T, opts ClientOptions) (*Server, *AsyncClient) {
	t.Helper()
	s := NewServer(nil)
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	a, err := DialAsync(addr, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	return s, a
}

func TestAsyncClientBasic(t *testing.T) {
	_, a := startAsync(t, ClientOptions{})
	rep, err := a.Do("k", []byte("SET"), []byte("k"), []byte("v"))
	if err != nil || rep.kind != '+' {
		t.Fatalf("SET = %v, %v", rep, err)
	}
	rep, err = a.Do("k", []byte("GET"), []byte("k"))
	if err != nil || string(rep.bulk) != "v" {
		t.Fatalf("GET = %q, %v", rep.bulk, err)
	}
}

func TestAsyncClientConcurrent(t *testing.T) {
	const workers, ops = 8, 200
	s, a := startAsync(t, ClientOptions{PoolSize: 3, Window: 32})
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				k := fmt.Sprintf("w%d-k%d", w, i)
				v := []byte(fmt.Sprintf("v%d-%d", w, i))
				if _, err := a.Do(k, []byte("SET"), []byte(k), v); err != nil {
					errs[w] = err
					return
				}
				rep, err := a.Do(k, []byte("GET"), []byte(k))
				if err != nil {
					errs[w] = err
					return
				}
				if string(rep.bulk) != string(v) {
					errs[w] = fmt.Errorf("got %q want %q", rep.bulk, v)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	if n := s.Engine().Size(); n != workers*ops {
		t.Errorf("engine holds %d keys, want %d", n, workers*ops)
	}
}

// TestAsyncClientPerKeyOrder hammers single keys with sequential writes from
// their owning goroutines; the final value must be the last write, which
// only holds if per-key submission order survives the pool and pipelining.
func TestAsyncClientPerKeyOrder(t *testing.T) {
	const keys, writes = 16, 100
	_, a := startAsync(t, ClientOptions{PoolSize: 4, Window: 16})
	var wg sync.WaitGroup
	for k := 0; k < keys; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			key := fmt.Sprintf("key-%d", k)
			for i := 0; i <= writes; i++ {
				a.Do(key, []byte("SET"), []byte(key), []byte(fmt.Sprintf("%d", i))) //lint:allow errdiscipline -- final read asserts the outcome
			}
		}(k)
	}
	wg.Wait()
	for k := 0; k < keys; k++ {
		key := fmt.Sprintf("key-%d", k)
		rep, err := a.Do(key, []byte("GET"), []byte(key))
		if err != nil {
			t.Fatal(err)
		}
		if string(rep.bulk) != fmt.Sprintf("%d", writes) {
			t.Errorf("%s = %q, want %d", key, rep.bulk, writes)
		}
	}
}

func TestAsyncClientServerGone(t *testing.T) {
	s, a := startAsync(t, ClientOptions{PoolSize: 2})
	if _, err := a.Do("k", []byte("PING")); err != nil {
		t.Fatal(err)
	}
	s.Close()
	// Every pipe must eventually fail submissions instead of hanging.
	for p := 0; p < 4; p++ {
		if _, err := a.Do(fmt.Sprintf("k%d", p), []byte("PING")); err == nil {
			// The first command after the close may still have been buffered
			// through; retry until the broken pipe surfaces.
			continue
		}
		return
	}
	t.Fatal("no error after server close")
}

func TestAsyncClientClosedFailsFast(t *testing.T) {
	_, a := startAsync(t, ClientOptions{})
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Do("k", []byte("PING")); !errors.Is(err, errClientClosed) {
		t.Fatalf("Do after Close = %v, want errClientClosed", err)
	}
}

// writeBlockConn stalls every Write until unblock closes — a deterministic
// stand-in for a peer that stops draining its socket.
type writeBlockConn struct {
	net.Conn
	unblock <-chan struct{}
}

func (c *writeBlockConn) Write(p []byte) (int, error) {
	<-c.unblock
	return c.Conn.Write(p)
}

// TestStalledPipeDoesNotWedgeClient is the regression test for the
// submit-under-RLock bug the lint suite's blocking-under-lock rule surfaced: a
// submitter blocked sending into a stalled pipe used to hold the client's
// read lock across the send, so Close's write lock blocked behind it —
// and, because a pending writer stalls new read locks, so did every
// submitter on every other pipe. The fixed submit registers on the pipe's
// submitter WaitGroup and sends with no lock held: a fully stalled pipe
// must leave the client lock acquirable and Close's fail-fast path live.
func TestStalledPipeDoesNotWedgeClient(t *testing.T) {
	unblock := make(chan struct{})
	release := sync.OnceFunc(func() { close(unblock) })
	var conns int
	var connMu sync.Mutex
	opts := ClientOptions{
		PoolSize:    2,
		Window:      1,
		ReadTimeout: 200 * time.Millisecond,
		WrapConn: func(c net.Conn) net.Conn {
			connMu.Lock()
			defer connMu.Unlock()
			conns++
			if conns == 1 {
				return &writeBlockConn{Conn: c, unblock: unblock}
			}
			return c
		},
	}
	_, a := startAsync(t, opts)
	t.Cleanup(release) // runs before startAsync's a.Close cleanup (LIFO)

	// Affinity keys for each pipe.
	k0, k1 := "", ""
	for i := 0; k0 == "" || k1 == ""; i++ {
		k := fmt.Sprintf("key-%d", i)
		if a.pick(k) == 0 {
			k0 = k
		} else {
			k1 = k
		}
	}

	// Stall pipe 0. The writer ends up blocked in the stalled flush holding
	// one command, and the reader can absorb at most two more through the
	// in-flight channel before the window closes — so of six submissions at
	// least one fills the request queue (Window=1) and at least one parks
	// in the channel send inside submit, which is the state under test.
	var doWg sync.WaitGroup
	for i := 0; i < 6; i++ {
		doWg.Add(1)
		go func() {
			defer doWg.Done()
			a.Do(k0, []byte("PING")) //lint:allow errdiscipline -- the pipe is stalled on purpose; outcomes are asserted below
		}()
	}
	waitFor(t, "request queue full", func() bool { return len(a.pipes[0].reqCh) == cap(a.pipes[0].reqCh) })
	time.Sleep(50 * time.Millisecond) // let the third submitter reach the send

	// Regression assertion 1: the client's write lock must be acquirable
	// while a submitter is parked in the send.
	lockOK := make(chan struct{})
	go func() {
		a.mu.Lock()
		a.mu.Unlock() // probe: acquire-and-release to prove the lock is not wedged
		close(lockOK)
	}()
	select {
	case <-lockOK:
	case <-time.After(5 * time.Second):
		t.Fatal("client write lock wedged by a submitter blocked on a stalled pipe")
	}

	// Regression assertion 2: Close (which will wait out the stalled pipe)
	// must still flip the closed flag promptly, so new submissions fail
	// fast instead of piling onto pipes.
	closeDone := make(chan error, 1)
	go func() { closeDone <- a.Close() }()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := a.Do(k1, []byte("PING")); errors.Is(err, errClientClosed) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("submissions never started failing fast after Close began")
		}
	}

	// Unstall: everything must unwind — blocked submitters complete (with
	// errors), Close returns.
	release()
	doWg.Wait()
	select {
	case <-closeDone:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return after the stalled pipe was released")
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}
