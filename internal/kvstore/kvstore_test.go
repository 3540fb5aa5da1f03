package kvstore

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

// ---------------------------------------------------------------------------
// Engine

// set stores a copy of value under key.
func (e *Engine) set(key string, value []byte) {
	v := clone(value)
	e.mu.Lock()
	e.put(key, v)
	e.mu.Unlock()
}

func TestEngineBasics(t *testing.T) {
	e := NewEngine()
	e.set("a", []byte("1"))
	v, err := e.Get("a")
	if err != nil || string(v) != "1" {
		t.Fatalf("Get = %q, %v", v, err)
	}
	if _, err := e.Get("missing"); !errors.Is(err, ErrNoSuchKey) {
		t.Errorf("missing Get = %v", err)
	}
	if !e.Exists("a") || e.Exists("b") {
		t.Error("Exists wrong")
	}
	if n := e.Del("a", "b"); n != 1 {
		t.Errorf("Del = %d, want 1", n)
	}
	if e.Size() != 0 {
		t.Errorf("Size = %d", e.Size())
	}
}

func TestEngineKeysPatterns(t *testing.T) {
	e := NewEngine()
	for _, k := range []string{"rdf:new:1", "rdf:new:2", "rdf:done:1", "other"} {
		e.set(k, nil)
	}
	if ks := e.Keys("rdf:new:*"); len(ks) != 2 || ks[0] != "rdf:new:1" {
		t.Errorf("prefix scan = %v", ks)
	}
	if ks := e.Keys("other"); len(ks) != 1 {
		t.Errorf("exact scan = %v", ks)
	}
	if ks := e.Keys("*"); len(ks) != 4 {
		t.Errorf("full scan = %v", ks)
	}
	if ks := e.Keys("zzz*"); len(ks) != 0 {
		t.Errorf("no-match scan = %v", ks)
	}
}

func TestEngineRename(t *testing.T) {
	e := NewEngine()
	e.set("new:f1", []byte("rdf"))
	if err := e.Rename("new:f1", "done:f1"); err != nil {
		t.Fatal(err)
	}
	if e.Exists("new:f1") {
		t.Error("source survived rename")
	}
	v, _ := e.Get("done:f1")
	if string(v) != "rdf" {
		t.Errorf("renamed value = %q", v)
	}
	if err := e.Rename("new:f1", "x"); !errors.Is(err, ErrNoSuchKey) {
		t.Errorf("rename missing = %v", err)
	}
	// A rename onto itself keeps the key, as in Redis.
	if err := e.Rename("done:f1", "done:f1"); err != nil {
		t.Fatal(err)
	}
	if v, err := e.Get("done:f1"); err != nil || string(v) != "rdf" {
		t.Errorf("after self-rename Get = %q, %v", v, err)
	}
}

func TestEngineMGetAndFlush(t *testing.T) {
	e := NewEngine()
	e.set("a", []byte("1"))
	e.set("c", []byte("3"))
	got := e.mgetRef([][]byte{[]byte("a"), []byte("b"), []byte("c")})
	if string(got[0]) != "1" || got[1] != nil || string(got[2]) != "3" {
		t.Errorf("mgetRef = %v", got)
	}
	e.Flush()
	if e.Size() != 0 {
		t.Error("Flush left keys")
	}
}

func TestEngineValueIsolation(t *testing.T) {
	e := NewEngine()
	src := []byte("abc")
	e.set("k", src)
	src[0] = 'X'
	v, _ := e.Get("k")
	if string(v) != "abc" {
		t.Error("engine aliased caller slice")
	}
	v[0] = 'Y'
	v2, _ := e.Get("k")
	if string(v2) != "abc" {
		t.Error("engine aliased returned slice")
	}
}

// TestPropertyEngineMatchesMap drives the partitioned engine and a flat
// map through the same random Set / Del / Rename (within and across
// namespaces, onto itself included) / Flush, and checks every KEYS
// pattern form against a brute-force scan-and-sort of the map.
func TestPropertyEngineMatchesMap(t *testing.T) {
	keys := []string{"a:k0", "a:k1", "a:x:k2", "ab:k0", "b:k1", "k0", "k1", "ab"}
	patterns := []string{"*", "a:*", "ab:*", "a:k*", "a:x:*", "a*", "ab*", "k*", "z*", ":*", "a:k0", "ab", "zz", ""}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		model := map[string]string{}
		for i := 0; i < 300; i++ {
			k := keys[rng.Intn(len(keys))]
			switch op := rng.Intn(20); {
			case op < 7:
				v := fmt.Sprintf("v%d", i)
				e.set(k, []byte(v))
				model[k] = v
			case op < 10:
				_, inModel := model[k]
				if (e.Del(k) == 1) != inModel {
					return false
				}
				delete(model, k)
			case op < 15:
				dst := keys[rng.Intn(len(keys))]
				v, inModel := model[k]
				if err := e.Rename(k, dst); (err == nil) != inModel {
					return false
				}
				if inModel {
					delete(model, k)
					model[dst] = v
				}
			case op < 18:
				pat := patterns[rng.Intn(len(patterns))]
				if got, want := e.Keys(pat), scanKeys(model, pat); !slices.Equal(got, want) {
					t.Logf("Keys(%q) = %q, want %q", pat, got, want)
					return false
				}
			default:
				if rng.Intn(8) == 0 {
					e.Flush()
					clear(model)
				}
			}
		}
		if e.Size() != len(model) {
			return false
		}
		for k, v := range model {
			got, err := e.Get(k)
			if err != nil || string(got) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// scanKeys is the KEYS oracle: every key of model matching pattern, sorted.
func scanKeys(model map[string]string, pattern string) []string {
	prefix, wildcard := strings.CutSuffix(pattern, "*")
	var out []string
	for k := range model {
		if wildcard && strings.HasPrefix(k, prefix) || !wildcard && k == pattern {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// ---------------------------------------------------------------------------
// Protocol

func TestProtoCommandRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	if err := writeCommand(w, []byte("SET"), []byte("key"), []byte("val\r\nwith crlf")); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	args, err := readCommand(bufio.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if len(args) != 3 || string(args[2]) != "val\r\nwith crlf" {
		t.Errorf("args = %q", args)
	}
}

func TestProtoReplyKinds(t *testing.T) {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	writeSimple(w, "OK")
	writeError(w, "boom")
	writeInt(w, -7)
	writeBulk(w, []byte("data"))
	writeBulk(w, nil)
	writeArray(w, [][]byte{[]byte("a"), nil, []byte("c")})
	w.Flush()
	r := bufio.NewReader(&buf)

	rep, _ := readReply(r)
	if rep.kind != '+' || rep.str != "OK" {
		t.Errorf("simple = %+v", rep)
	}
	rep, _ = readReply(r)
	if rep.kind != '-' || !strings.Contains(rep.str, "boom") {
		t.Errorf("error = %+v", rep)
	}
	rep, _ = readReply(r)
	if rep.kind != ':' || rep.n != -7 {
		t.Errorf("int = %+v", rep)
	}
	rep, _ = readReply(r)
	if rep.kind != '$' || string(rep.bulk) != "data" {
		t.Errorf("bulk = %+v", rep)
	}
	rep, _ = readReply(r)
	if rep.kind != '$' || rep.bulk != nil {
		t.Errorf("nil bulk = %+v", rep)
	}
	rep, _ = readReply(r)
	if rep.kind != '*' || len(rep.array) != 3 || rep.array[1] != nil {
		t.Errorf("array = %+v", rep)
	}
}

func TestProtoMalformedInput(t *testing.T) {
	bad := []string{
		"",                 // empty
		"hello\r\n",        // not an array
		"*x\r\n",           // bad count
		"*1\r\nhi\r\n",     // element not bulk
		"*1\r\n$5\r\nab",   // truncated
		"*1\r\n$-5\r\n",    // negative bulk in request
		"*99999999999\r\n", // over max
	}
	for _, s := range bad {
		if _, err := readCommand(bufio.NewReader(strings.NewReader(s))); err == nil {
			t.Errorf("readCommand(%q) succeeded", s)
		}
	}
}

func TestPropertyProtoRoundTrip(t *testing.T) {
	f := func(parts [][]byte) bool {
		if len(parts) == 0 {
			return true // empty command arrays are invalid by protocol
		}
		var buf bytes.Buffer
		w := bufio.NewWriter(&buf)
		if err := writeCommand(w, parts...); err != nil {
			return false
		}
		w.Flush()
		got, err := readCommand(bufio.NewReader(&buf))
		if err != nil {
			return false
		}
		if len(got) != len(parts) {
			return false
		}
		for i := range parts {
			if !bytes.Equal(got[i], parts[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// ---------------------------------------------------------------------------
// Server + one-shard Cluster over TCP

func startServer(t *testing.T) (*Server, *Cluster) {
	t.Helper()
	s := NewServer(nil)
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	c, err := DialCluster([]string{addr})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return s, c
}

// ping round-trips a PING on the cluster's only shard.
func ping(c *Cluster) error {
	rep, err := c.doOnShard(0, "", []byte("PING"))
	if err != nil {
		return err
	}
	if rep.kind != '+' || rep.str != "PONG" {
		return errProtocol
	}
	return nil
}

func TestClientServerBasics(t *testing.T) {
	_, c := startServer(t)
	if err := ping(c); err != nil {
		t.Fatal(err)
	}
	if err := c.Set("frame:1", []byte("rdf-bytes")); err != nil {
		t.Fatal(err)
	}
	v, err := c.Get("frame:1")
	if err != nil || string(v) != "rdf-bytes" {
		t.Fatalf("Get = %q, %v", v, err)
	}
	if _, err := c.Get("absent"); !errors.Is(err, ErrNoSuchKey) {
		t.Errorf("absent Get = %v", err)
	}
	n, err := c.Del("frame:1", "absent")
	if err != nil || n != 1 {
		t.Fatalf("Del = %d, %v", n, err)
	}
}

func TestClientKeysRenameDBSize(t *testing.T) {
	_, c := startServer(t)
	for i := 0; i < 5; i++ {
		if err := c.Set(fmt.Sprintf("new:%d", i), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	ks, err := c.Keys("new:*")
	if err != nil || len(ks) != 5 {
		t.Fatalf("Keys = %v, %v", ks, err)
	}
	if n, err := c.Rename([]string{"new:0"}, []string{"done:0"}); err != nil || n != 1 {
		t.Fatalf("Rename = %d, %v", n, err)
	}
	if n, err := c.Rename([]string{"new:0"}, []string{"done:0"}); err != nil || n != 0 {
		t.Errorf("rename missing = %d, %v", n, err)
	}
	if _, err := c.Rename([]string{"done:0"}, []string{"x"}); err == nil {
		t.Error("rename that changes the placement accepted")
	}
	if n := dbsize(t, c); n != 5 {
		t.Fatalf("DBSIZE = %d", n)
	}
	flushAll(t, c)
	if n := dbsize(t, c); n != 0 {
		t.Errorf("DBSIZE after flush = %d", n)
	}
}

// dbsize sums DBSIZE over the cluster's shards.
func dbsize(t *testing.T, c *Cluster) int {
	t.Helper()
	total := 0
	for i := range c.shards {
		rep, err := c.doOnShard(i, "", []byte("DBSIZE"))
		if err != nil {
			t.Fatal(err)
		}
		total += int(rep.n)
	}
	return total
}

// flushAll clears every shard of the cluster.
func flushAll(t *testing.T, c *Cluster) {
	t.Helper()
	for i := range c.shards {
		if _, err := c.doOnShard(i, "", []byte("FLUSHALL")); err != nil {
			t.Fatal(err)
		}
	}
}

func TestClientMGet(t *testing.T) {
	_, c := startServer(t)
	c.Set("a", []byte("1"))
	c.Set("c", []byte("3"))
	vals, err := c.MGetSlice([]string{"a", "b", "c"})
	if err != nil {
		t.Fatal(err)
	}
	if string(vals[0]) != "1" || vals[1] != nil || string(vals[2]) != "3" {
		t.Errorf("MGetSlice = %v", vals)
	}
}

func TestServerUnknownCommand(t *testing.T) {
	_, c := startServer(t)
	rep, err := c.doOnShard(0, "", []byte("BOGUS"))
	if err != nil {
		t.Fatal(err)
	}
	if rep.kind != '-' {
		t.Errorf("unknown command reply = %+v", rep)
	}
	// Connection must remain usable after a command error.
	if err := ping(c); err != nil {
		t.Errorf("connection dead after error reply: %v", err)
	}
}

func TestServerWrongArity(t *testing.T) {
	_, c := startServer(t)
	for _, cmd := range [][][]byte{
		{[]byte("SET"), []byte("k")},
		{[]byte("GET")},
		{[]byte("DEL")},
		{[]byte("RENAME"), []byte("a")},
		{[]byte("KEYS")},
		{[]byte("EXISTS")},
		{[]byte("MGET")},
		{[]byte("MSET"), []byte("k")},
		{[]byte("MSET"), []byte("k"), []byte("v"), []byte("dangling")},
	} {
		rep, err := c.doOnShard(0, "", cmd...)
		if err != nil {
			t.Fatal(err)
		}
		if rep.kind != '-' {
			t.Errorf("%s with wrong arity: %+v", cmd[0], rep)
		}
	}
}

// TestServerCloseWaitsForHandlers: Close returns only after every
// connection handler has exited. The handler is parked inside a command (on
// the engine lock the test holds), so it provably has not exited while
// Close runs; a handler left out of the server's WaitGroup lets Close
// return under it. It is the gate for seeded rows 1, C1 and C8 of
// docs/LINT.md "What each analyzer is a gate for".
func TestServerCloseWaitsForHandlers(t *testing.T) {
	s, c := startServer(t)
	// The test holds a read lock, so the SET's write lock waits; a waiting
	// writer makes TryRLock fail, which is how the test sees the SET parked.
	s.engine.mu.RLock()
	unlock := sync.OnceFunc(s.engine.mu.RUnlock)
	defer unlock()
	setDone := make(chan error, 1) // fails or not with the closing server; only its arrival and return matter
	go func() { setDone <- c.Set("k", []byte("v")) }()
	for deadline := time.Now().Add(10 * time.Second); s.engine.mu.TryRLock(); {
		s.engine.mu.RUnlock()
		if time.Now().After(deadline) {
			t.Fatal("the SET never reached the connection handler")
		}
		time.Sleep(time.Millisecond)
	}

	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()
	select {
	case <-closed:
		t.Fatal("Close returned while a connection handler was still inside a command")
	case <-time.After(200 * time.Millisecond):
	}
	unlock()
	select {
	case err := <-closed:
		if err != nil {
			t.Errorf("Close: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return once the handler was released")
	}
	select {
	case <-setDone:
	case <-time.After(10 * time.Second):
		t.Error("the client's SET never returned")
	}
}

func TestConcurrentClients(t *testing.T) {
	s, _ := startServer(t)
	addr := s.ln.Addr().String()
	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := DialCluster([]string{addr})
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for i := 0; i < 50; i++ {
				k := fmt.Sprintf("w%d:%d", w, i)
				if err := c.Set(k, []byte(k)); err != nil {
					errs <- err
					return
				}
				v, err := c.Get(k)
				if err != nil || string(v) != k {
					errs <- fmt.Errorf("get %s = %q, %v", k, v, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if s.Engine().Size() != workers*50 {
		t.Errorf("Size = %d", s.Engine().Size())
	}
}

// ---------------------------------------------------------------------------
// Cluster

func startCluster(t *testing.T, n int) *Cluster {
	t.Helper()
	addrs, shutdown, err := LaunchCluster(n)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(shutdown)
	c, err := DialCluster(addrs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestClusterSpreadsKeys(t *testing.T) {
	c := startCluster(t, 4)
	keys, vals := make([]string, 200), make([][]byte, 200)
	for i := range keys {
		keys[i], vals[i] = fmt.Sprintf("frame:%04d", i), []byte("x")
	}
	if err := c.MSetSlice(keys, vals); err != nil {
		t.Fatal(err)
	}
	if total := dbsize(t, c); total != 200 {
		t.Fatalf("DBSIZE = %d", total)
	}
	// Every shard should own a nontrivial share under ring hashing.
	for i := range c.shards {
		rep, err := c.doOnShard(i, "", []byte("DBSIZE"))
		if err != nil {
			t.Fatal(err)
		}
		if rep.n < 20 {
			t.Errorf("shard %d owns only %d/200 keys", i, rep.n)
		}
	}
}

func TestClusterScanAndMGet(t *testing.T) {
	c := startCluster(t, 3)
	want, vals := make([]string, 50), make([][]byte, 50)
	for i := range want {
		want[i], vals[i] = fmt.Sprintf("rdf:new:%03d", i), []byte(fmt.Sprintf("payload-%d", i))
	}
	if err := c.MSetSlice(want, vals); err != nil {
		t.Fatal(err)
	}
	keys, err := c.Keys("rdf:new:*")
	if err != nil || !slices.Equal(keys, want) {
		t.Fatalf("Keys = %q, %v", keys, err)
	}
	got, err := c.MGetSlice(keys)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		if !bytes.Equal(got[i], vals[i]) {
			t.Errorf("value mismatch at %s: %q", k, got[i])
		}
	}
}

func TestClusterRenameAcrossNodes(t *testing.T) {
	c := startCluster(t, 5)
	// Namespace renames of keys spread over five nodes: the bare key places
	// both names, so each is one RENAME on the key's own shard.
	for i := 0; i < 40; i++ {
		k := fmt.Sprintf("new:%d", i)
		if err := c.Set(k, []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
		if n, err := c.Rename([]string{k}, []string{fmt.Sprintf("done:%d", i)}); err != nil || n != 1 {
			t.Fatalf("Rename(%s) = %d, %v", k, n, err)
		}
	}
	newKeys, _ := c.Keys("new:*")
	doneKeys, _ := c.Keys("done:*")
	if len(newKeys) != 0 || len(doneKeys) != 40 {
		t.Errorf("new=%d done=%d", len(newKeys), len(doneKeys))
	}
	v, err := c.Get("done:7")
	if err != nil || string(v) != "v7" {
		t.Errorf("Get(done:7) = %q, %v", v, err)
	}
}

func TestClusterDelAndFlush(t *testing.T) {
	c := startCluster(t, 3)
	var keys []string
	for i := 0; i < 30; i++ {
		k := fmt.Sprintf("k%d", i)
		keys = append(keys, k)
		c.Set(k, []byte("x"))
	}
	n, err := c.Del(keys[:20]...)
	if err != nil || n != 20 {
		t.Fatalf("Del = %d, %v", n, err)
	}
	flushAll(t, c)
	if total := dbsize(t, c); total != 0 {
		t.Errorf("DBSIZE after flush = %d", total)
	}
}

func TestDialClusterErrors(t *testing.T) {
	if _, err := DialCluster(nil); err == nil {
		t.Error("empty cluster accepted")
	}
	if _, err := DialCluster([]string{"127.0.0.1:1"}); err == nil {
		t.Error("unreachable cluster accepted")
	}
}

// TestClusterNodesAndServerAddr: a cluster holds one shard per node it was
// given, and Listen returns the address the server is bound to.
func TestClusterNodesAndServerAddr(t *testing.T) {
	c := startCluster(t, 4)
	if len(c.shards) != 4 {
		t.Errorf("shards = %d", len(c.shards))
	}
	s := NewServer(nil)
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := s.ln.Addr().String(); got != addr {
		t.Errorf("Listen returned %q, bound %q", addr, got)
	}
}

func TestServerMSet(t *testing.T) {
	s, c := startServer(t)
	rep, err := c.doOnShard(0, "", []byte("MSET"),
		[]byte("m:1"), []byte("v1"),
		[]byte("m:2"), []byte("v2"),
		[]byte("m:3"), []byte("v3"))
	if err != nil {
		t.Fatal(err)
	}
	if rep.kind != '+' || rep.str != "OK" {
		t.Fatalf("MSET reply = %+v", rep)
	}
	for i := 1; i <= 3; i++ {
		k := fmt.Sprintf("m:%d", i)
		v, err := s.Engine().Get(k)
		if err != nil || string(v) != fmt.Sprintf("v%d", i) {
			t.Errorf("Get(%s) = %q, %v", k, v, err)
		}
	}
}

func TestClusterSliceAPIs(t *testing.T) {
	c := startCluster(t, 3)
	keys := make([]string, 100)
	vals := make([][]byte, 100)
	for i := range keys {
		keys[i] = fmt.Sprintf("slice:%03d", i)
		vals[i] = []byte(fmt.Sprintf("payload-%03d", i))
	}
	if err := c.MSetSlice(keys, vals); err != nil {
		t.Fatal(err)
	}
	// Positional results, with a missing key yielding a nil entry in place.
	probe := append([]string{"slice:no-such-key"}, keys...)
	got, err := c.MGetSlice(probe)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(probe) {
		t.Fatalf("MGetSlice returned %d values for %d keys", len(got), len(probe))
	}
	if got[0] != nil {
		t.Errorf("missing key returned %q", got[0])
	}
	for i, k := range keys {
		if !bytes.Equal(got[i+1], vals[i]) {
			t.Errorf("value mismatch at %s: %q", k, got[i+1])
		}
	}
	if err := c.MSetSlice(keys[:2], vals[:1]); err == nil {
		t.Error("mismatched keys/vals lengths accepted")
	}
}

func TestWrapConnHook(t *testing.T) {
	s, _ := startServer(t)
	var wrapped atomic.Int32
	opts := ClientOptions{WrapConn: func(conn net.Conn) net.Conn {
		wrapped.Add(1)
		return conn
	}}
	a, err := DialAsync(s.ln.Addr().String(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	rep, err := a.Do("w2", []byte("SET"), []byte("w2"), []byte("2"))
	if err != nil || rep.kind != '+' {
		t.Fatalf("async SET through wrapped conn = %+v, %v", rep, err)
	}
	if int(wrapped.Load()) != poolSize {
		t.Errorf("WrapConn invoked %d times for a pool of %d", wrapped.Load(), poolSize)
	}
}

// delayConn charges every Read that returns fresh bytes one modeled
// interconnect round trip.
type delayConn struct {
	net.Conn
	rtt time.Duration
}

func (d delayConn) Read(p []byte) (int, error) {
	n, err := d.Conn.Read(p)
	if n > 0 {
		time.Sleep(d.rtt)
	}
	return n, err
}

// Pipelining amortises round trips: with every reply read costing rtt, a
// client that spent one round trip per key would need 2*n*rtt to write and
// read back n keys. The batch path (chunked MSETs out, one MGET back) has
// to come in under a tenth of that.
func TestPipeliningAmortizesRoundTrips(t *testing.T) {
	const (
		n   = 2000
		rtt = time.Millisecond
	)
	s, _ := startServer(t)
	c, err := DialShards([]Shard{{Primary: s.ln.Addr().String()}}, ClientOptions{
		WrapConn: func(conn net.Conn) net.Conn { return delayConn{conn, rtt} },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	keys := make([]string, n)
	vals := make([][]byte, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("rdf:new:%04d", i)
		vals[i] = []byte(keys[i])
	}
	start := time.Now()
	if err := c.MSetSlice(keys, vals); err != nil {
		t.Fatal(err)
	}
	got, err := c.MGetSlice(keys)
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	for i := range keys {
		if !bytes.Equal(got[i], vals[i]) {
			t.Fatalf("value mismatch at %s: %q", keys[i], got[i])
		}
	}
	if limit := 2 * n * rtt / 10; elapsed >= limit {
		t.Errorf("%d keys out and back took %v, want < %v (a tenth of one round trip per key)", n, elapsed, limit)
	}
}

// A scatter burst larger than the in-flight window must not deadlock:
// the writer has to flush buffered commands before blocking on a window
// slot, or the replies that would free the window can never arrive.
// Regression test for a pipelining deadlock hit by Fig7KVQueries
// (hundreds of single-key DELs on one shard against the default window).
func TestBurstLargerThanWindow(t *testing.T) {
	addrs, shutdown, err := LaunchCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(shutdown)
	c, err := DialShards([]Shard{{Primary: addrs[0]}, {Primary: addrs[1]}}, ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	const n = 8 * poolSize * window // ~4 windows of single-key commands per pipe
	keys := make([]string, n)
	vals := make([][]byte, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("burst:%04d", i)
		vals[i] = []byte("v")
	}
	done := make(chan error, 1)
	go func() {
		if err := c.MSetSlice(keys, vals); err != nil {
			done <- err
			return
		}
		deleted, err := c.Del(keys...)
		if err == nil && deleted != n {
			err = fmt.Errorf("deleted %d of %d", deleted, n)
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("burst larger than window deadlocked")
	}
}

// TestRecoverDialsOutsideShardLock: a redial can stall for its whole dial
// timeout, so recover dials outside the shard lock, and client(), which
// every request on the shard takes, answers meanwhile. A SET to a killed
// primary enters recover, whose redial to the replica a WrapConn hook holds
// open; while it is held, client() must return within a second. It is the
// gate for seeded row C6 of docs/LINT.md.
func TestRecoverDialsOutsideShardLock(t *testing.T) {
	d, err := LaunchReplicated(1)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	var hold atomic.Bool
	held, release := make(chan struct{}, 1), make(chan struct{})
	c, err := DialShards(d.Shards(), ClientOptions{WrapConn: func(conn net.Conn) net.Conn {
		if hold.Load() {
			select {
			case held <- struct{}{}:
			default:
			}
			<-release
		}
		return conn
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	unhold := sync.OnceFunc(func() { close(release) })
	defer unhold()

	hold.Store(true)
	d.KillPrimary(0)
	setDone := make(chan error, 1)
	go func() { setDone <- c.Set("k", []byte("v")) }()
	select {
	case <-held:
	case <-time.After(10 * time.Second):
		t.Fatal("the SET never redialed")
	}
	answered := make(chan struct{})
	go func() {
		c.shards[0].client()
		close(answered)
	}()
	select {
	case <-answered:
	case <-time.After(time.Second):
		t.Error("client() blocked while recover dialed")
	}
	unhold()
	select {
	case err := <-setDone:
		if err != nil {
			t.Errorf("SET through the failover: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the SET never returned")
	}
}

// TestClientRedialsRestartedNode: a node dies and a server comes back at
// the same address over the same keyspace; the cluster's shard recovery
// redials that address and the client sees every key again.
func TestClientRedialsRestartedNode(t *testing.T) {
	e := NewEngine()
	srv := NewServer(e)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := DialCluster([]string{addr})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 100; i++ {
		if err := c.Set(fmt.Sprintf("k%03d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	srv.Close() // node dies

	srv2 := NewServer(e)
	if _, err := srv2.Listen(addr); err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	v, err := c.Get("k042") // the shard redials the same address
	if err != nil || string(v) != "v" {
		t.Fatalf("Get after restart = %q, %v", v, err)
	}
	if n := dbsize(t, c); n != 100 {
		t.Errorf("DBSIZE after restart = %d", n)
	}
}

// wireLog keeps what a client writes, by server address.
type wireLog struct {
	mu  sync.Mutex
	out map[string]*bytes.Buffer
}

type loggedConn struct {
	net.Conn
	log *wireLog
}

func (c loggedConn) Write(p []byte) (int, error) {
	c.log.mu.Lock()
	addr := c.RemoteAddr().String()
	if c.log.out[addr] == nil {
		c.log.out[addr] = new(bytes.Buffer)
	}
	c.log.out[addr].Write(p)
	c.log.mu.Unlock()
	return c.Conn.Write(p)
}

// take returns the number of commands written to addr since the last take.
func (l *wireLog) take(t *testing.T, addr string) int64 {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	b := l.out[addr]
	if b == nil {
		return 0
	}
	defer b.Reset()
	r := bufio.NewReader(b)
	for n := int64(0); ; n++ {
		if _, err := readCommand(r); err != nil {
			if !errors.Is(err, io.EOF) {
				t.Fatalf("commands to %s: %v", addr, err)
			}
			return n
		}
	}
}

// TestStoreWireShape pins the commands each Store method sends, counted
// per server on a three-shard cluster: the traffic the feedback path (and
// the feedback-kv benchmark workload) is made of.
func TestStoreWireShape(t *testing.T) {
	const shards = 3
	addrs := make([]Shard, shards)
	for i := range addrs {
		s := NewServer(nil)
		addr, err := s.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		addrs[i] = Shard{Primary: addr}
	}
	log := &wireLog{out: map[string]*bytes.Buffer{}}
	c, err := DialShards(addrs, ClientOptions{WrapConn: func(conn net.Conn) net.Conn { return loggedConn{conn, log} }})
	if err != nil {
		t.Fatal(err)
	}
	st := NewStore(c)
	defer st.Close()
	ring := NewRing(shards)

	// delta runs op and returns the commands each server received meanwhile.
	delta := func(op func() error) [shards]int64 {
		t.Helper()
		for _, sh := range addrs {
			log.take(t, sh.Primary)
		}
		if err := op(); err != nil {
			t.Fatal(err)
		}
		var d [shards]int64
		for i, sh := range addrs {
			d[i] = log.take(t, sh.Primary)
		}
		return d
	}
	// one is one command on the bare key's shard and none elsewhere.
	one := func(key string) (want [shards]int64) {
		want[ring.Lookup(key)] = 1
		return want
	}

	const n = 40
	keys := make([]string, n)
	var perKey [shards]int64
	for i := range keys {
		keys[i] = fmt.Sprintf("frame%03d", i)
		perKey[ring.Lookup(keys[i])]++
		if got, want := delta(func() error { return st.Put("new", keys[i], []byte("v")) }), one(keys[i]); got != want {
			t.Fatalf("Put(%s) sent %v, want %v", keys[i], got, want)
		}
	}
	if got, want := delta(func() error { _, err := st.Get("new", keys[0]); return err }), one(keys[0]); got != want {
		t.Errorf("Get sent %v, want %v", got, want)
	}
	var owners [shards]int64
	for i, k := range perKey {
		if k > 0 {
			owners[i] = 1
		}
	}
	if got := delta(func() error { _, err := st.GetBatch("new", keys); return err }); got != owners {
		t.Errorf("GetBatch of %d keys sent %v, want one MGET per owning shard %v", n, got, owners)
	}
	if got := delta(func() error { return st.MoveBatch("new", keys, "done") }); got != perKey {
		t.Errorf("MoveBatch of %d keys sent %v, want one RENAME per key on its shard %v", n, got, perKey)
	}
	if got, want := delta(func() error { return st.Move("done", keys[1], "new") }), one(keys[1]); got != want {
		t.Errorf("Move sent %v, want %v", got, want)
	}
	if got, want := delta(func() error { return st.Delete("new", keys[1]) }), one(keys[1]); got != want {
		t.Errorf("Delete sent %v, want %v", got, want)
	}
}
