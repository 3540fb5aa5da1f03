package kvstore

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
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
	s, a := startAsync(t, ClientOptions{})
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
	_, a := startAsync(t, ClientOptions{})
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
	s, a := startAsync(t, ClientOptions{})
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
// stand-in for a peer that stops draining its socket. entered is called as
// each Write arrives, before it stalls.
type writeBlockConn struct {
	net.Conn
	unblock <-chan struct{}
	entered func()
}

func (c *writeBlockConn) Write(p []byte) (int, error) {
	c.entered()
	<-c.unblock
	return c.Conn.Write(p)
}

// lockWithin fails the test unless mu can be acquired within d.
func lockWithin(t *testing.T, mu sync.Locker, d time.Duration, what string) {
	t.Helper()
	ok := make(chan struct{})
	go func() {
		mu.Lock()
		mu.Unlock() // probe: acquire-and-release to prove the lock is not wedged
		close(ok)
	}()
	select {
	case <-ok:
	case <-time.After(d):
		t.Fatalf("%s wedged", what)
	}
}

// TestStalledPipeDoesNotWedgeClient holds the pipe to its rule that no
// socket I/O runs under pipe.mu. One caller takes the writer role and is
// stuck in a flush that never drains; the other callers' bursts on that
// pipe fill the window and drive the window-full path, one of them blocked
// reading for a reply that cannot come. The pipe lock must stay
// acquirable, Close must return and make new submissions fail fast without
// waiting out the stuck writer, and everything must unwind once the flush
// is released.
func TestStalledPipeDoesNotWedgeClient(t *testing.T) {
	unblock := make(chan struct{})
	release := sync.OnceFunc(func() { close(unblock) })
	stalled := make(chan struct{})
	entered := sync.OnceFunc(func() { close(stalled) })
	var conns int
	var connMu sync.Mutex
	opts := ClientOptions{
		WrapConn: func(c net.Conn) net.Conn {
			connMu.Lock()
			defer connMu.Unlock()
			conns++
			if conns == 1 {
				return &writeBlockConn{Conn: c, unblock: unblock, entered: entered}
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

	// Six bursts of half a window each: three times what the window holds.
	const callers, burst = 6, window / 2
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		go func() {
			placements := make([]string, burst)
			cmds := make([][][]byte, burst)
			for j := range cmds {
				placements[j], cmds[j] = k0, [][]byte{[]byte("PING")}
			}
			_, err := submitAll(a, placements, cmds)
			errs <- err
		}()
	}
	select {
	case <-stalled:
	case <-time.After(5 * time.Second):
		t.Fatal("no caller reached the stalled flush")
	}
	time.Sleep(50 * time.Millisecond) // let the other callers queue behind it

	// Assertion 1: a caller stuck in socket I/O holds no lock, and the
	// window is full, so the submitters behind it are on the window-full
	// path.
	p := a.pipes[0]
	lockWithin(t, &p.mu, 5*time.Second, "pipe lock held across a stalled flush:")
	p.mu.Lock()
	outstanding := len(p.pending) + len(p.inflight)
	p.mu.Unlock()
	if outstanding != window {
		t.Fatalf("stalled pipe holds %d calls, want a full window of %d", outstanding, window)
	}

	// Assertion 2: Close returns while the flush is still stuck, and new
	// submissions fail fast.
	closeDone := make(chan error, 1)
	go func() { closeDone <- a.Close() }()
	select {
	case <-closeDone:
	case <-time.After(5 * time.Second):
		t.Fatal("Close waited on a caller stuck in a stalled flush")
	}
	for _, k := range []string{k0, k1} {
		if _, err := a.Do(k, []byte("PING")); !errors.Is(err, errClientClosed) {
			t.Fatalf("Do(%s) after Close = %v, want errClientClosed", k, err)
		}
	}

	// Assertion 3: once the flush is released every stalled call unwinds,
	// failed with errClientClosed.
	release()
	for i := 0; i < callers; i++ {
		select {
		case err := <-errs:
			if !errors.Is(err, errClientClosed) {
				t.Errorf("stalled burst = %v, want errClientClosed", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%d of %d stalled callers never returned", callers-i, callers)
		}
	}
}

// TestPipeRepliesStayAligned has many goroutines mix single Dos with
// submitAll bursts larger than the window, every key unique. Each reply
// must be the caller's own value: a reply completed against the wrong
// call shows up as a foreign value (run under -race in CI).
func TestPipeRepliesStayAligned(t *testing.T) {
	const workers, rounds, burst = 8, 10, window
	_, a := startAsync(t, ClientOptions{})
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs[w] = alignedRounds(a, w, rounds, burst)
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Errorf("worker %d: %v", w, err)
		}
	}
}

// alignedRounds is one TestPipeRepliesStayAligned worker: even rounds SET
// and GET one key with Do, odd rounds submit burst SETs then burst GETs
// in one submitAll.
func alignedRounds(a *AsyncClient, w, rounds, burst int) error {
	for r := 0; r < rounds; r++ {
		if r%2 == 0 {
			k := fmt.Sprintf("w%d:r%d", w, r)
			if _, err := a.Do(k, []byte("SET"), []byte(k), []byte("v-"+k)); err != nil {
				return err
			}
			rep, err := a.Do(k, []byte("GET"), []byte(k))
			if err != nil {
				return err
			}
			if got := string(rep.bulk); got != "v-"+k {
				return fmt.Errorf("GET %s = %q", k, got)
			}
			continue
		}
		placements := make([]string, 2*burst)
		cmds := make([][][]byte, 2*burst)
		for i := 0; i < burst; i++ {
			k := fmt.Sprintf("w%d:r%d:%d", w, r, i)
			placements[i], placements[burst+i] = k, k
			cmds[i] = [][]byte{[]byte("SET"), []byte(k), []byte("v-" + k)}
			cmds[burst+i] = [][]byte{[]byte("GET"), []byte(k)}
		}
		reps, err := submitAll(a, placements, cmds)
		if err != nil {
			return err
		}
		for i := 0; i < burst; i++ {
			if reps[i].kind != '+' {
				return fmt.Errorf("SET %s = %+v", placements[i], reps[i])
			}
			if got, want := string(reps[burst+i].bulk), "v-"+placements[i]; got != want {
				return fmt.Errorf("GET %s = %q, want %q", placements[i], got, want)
			}
		}
	}
	return nil
}

// TestKillMidBurstFailsEveryCall kills the server while callers are
// mid-burst: every call must come back with a reply or an error, none may
// hang, and every caller must see the failure.
func TestKillMidBurstFailsEveryCall(t *testing.T) {
	const workers, burst = 6, 2 * window
	s, a := startAsync(t, ClientOptions{})
	var served atomic.Int64
	done := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			for r := 0; ; r++ {
				placements := make([]string, burst)
				cmds := make([][][]byte, burst)
				for i := range cmds {
					k := fmt.Sprintf("w%d:%d:%d", w, r, i)
					placements[i] = k
					cmds[i] = [][]byte{[]byte("SET"), []byte(k), []byte("v")}
				}
				if _, err := submitAll(a, placements, cmds); err != nil {
					done <- err
					return
				}
				served.Add(burst)
			}
		}(w)
	}
	waitFor(t, "bursts in flight", func() bool { return served.Load() >= 10*burst })
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < workers; i++ {
		select {
		case err := <-done:
			if err == nil {
				t.Error("burst against a killed server reported no error")
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%d of %d callers hung after the server was killed", workers-i, workers)
		}
	}
}

// TestDialAsyncStartsNoGoroutines: a connection is driven by its callers,
// so dialing a pool leaves the goroutine count where it was. The peer is a
// bare listener (the kernel completes the handshakes) so no server
// goroutine is counted either.
func TestDialAsyncStartsNoGoroutines(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	before := runtime.NumGoroutine()
	a, err := DialAsync(ln.Addr().String(), ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	after := runtime.NumGoroutine()
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if after > before {
		t.Errorf("DialAsync started %d goroutines, want 0", after-before)
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
