package kvstore

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mummi/internal/parallel"
)

// Cluster is the client side of a multi-node deployment: the paper ran a
// cluster of 20 Redis servers with compute nodes "allocated randomly" to
// them. Keys are placed on shards by a consistent-hash ring (stable under
// topology change, allocation-free per lookup); each shard is a primary
// with an optional replica, reached through a pipelined AsyncClient; and
// scatter operations (Keys/MGet/MSet/Del/Size/FlushAll) fan out to all
// shards in parallel with a deterministic shard-order merge.
//
// Failover is client-side: when a shard's node stops answering, the
// cluster flips to the shard's other node, redials, and retries under the
// configured retry policy. Together with the primary's synchronous
// write-forwarding (Server.SetReplica) this gives at-least-once semantics
// across a primary kill: every acknowledged write survives on the replica,
// and a retried batch may re-apply operations that were in flight — which
// is why Rename-class retries treat "no such key" on a key that already
// reached its destination as success (see Store.MoveBatch).
type Cluster struct {
	opts      ClientOptions
	ring      *Ring
	shards    []*shardConn
	failovers atomic.Int64
}

// Shard names one shard's nodes. An empty Replica runs the shard
// unreplicated.
type Shard struct {
	Primary string
	Replica string
}

// shardConn is one shard's connection state: which node is currently
// authoritative and the pipelined client talking to it. gen counts
// recoveries so concurrent failures trigger one failover, not a stampede.
type shardConn struct {
	mu     sync.Mutex
	addrs  [2]string // [0] primary, [1] replica ("" if none)
	active int
	gen    uint64
	cl     *AsyncClient
	// redialing marks a recovery dial in progress; redialed (on mu) wakes
	// the callers waiting for its outcome. The dial itself happens outside
	// mu so client() never blocks behind a slow redial.
	redialing bool
	redialed  *sync.Cond
}

// DialCluster connects to every node of an unreplicated cluster with
// default options (one shard per address).
func DialCluster(addrs []string) (*Cluster, error) {
	return DialClusterOptions(addrs, ClientOptions{})
}

// DialClusterOptions is DialCluster with explicit client options.
func DialClusterOptions(addrs []string, opts ClientOptions) (*Cluster, error) {
	shards := make([]Shard, len(addrs))
	for i, a := range addrs {
		shards[i] = Shard{Primary: a}
	}
	return DialShards(shards, opts)
}

// DialShards connects to a replicated cluster: one pipelined client per
// shard, initially against each shard's primary. Shard order is part of
// the placement function (ring identity is positional), so every client
// of a deployment must use the same shard list order.
func DialShards(shards []Shard, opts ClientOptions) (*Cluster, error) {
	if len(shards) == 0 {
		return nil, errors.New("kvstore: empty cluster")
	}
	opts = opts.withDefaults()
	c := &Cluster{opts: opts, ring: NewRing(len(shards), opts.VNodes)}
	for _, sh := range shards {
		cl, err := DialAsync(sh.Primary, opts)
		if err != nil {
			return nil, errors.Join(fmt.Errorf("kvstore: shard %s: %w", sh.Primary, err), c.Close())
		}
		sc := &shardConn{addrs: [2]string{sh.Primary, sh.Replica}, cl: cl}
		sc.redialed = sync.NewCond(&sc.mu)
		c.shards = append(c.shards, sc)
	}
	return c, nil
}

// Nodes returns the number of shards.
func (c *Cluster) Nodes() int { return len(c.shards) }

// Failovers reports how many times any shard switched nodes (promotion to
// replica or redial of the same node after a drop).
func (c *Cluster) Failovers() int64 { return c.failovers.Load() }

// shardFor returns the shard owning a placement key.
func (c *Cluster) shardFor(key string) *shardConn { return c.shards[c.ring.Lookup(key)] }

// client returns the shard's current pipelined client and its generation.
func (s *shardConn) client() (*AsyncClient, uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cl, s.gen
}

// recover replaces a failed client observed at generation gen: if another
// caller already recovered (gen advanced), the fresh client is returned
// as-is; otherwise the shard flips to its other node (when one exists)
// and redials. The caller retries against whatever comes back.
//
// The dial and the old client's teardown both happen outside s.mu: a dial
// can stall for its full timeout and closing the old client closes its
// sockets, and neither may block the client() fast path every other
// request on this shard takes. One caller claims the redial
// (redialing flag); the rest wait on the condvar and re-check the
// generation when woken.
func (s *shardConn) recover(c *Cluster, gen uint64) (*AsyncClient, uint64, error) {
	s.mu.Lock()
	for {
		if s.gen != gen {
			cl, g := s.cl, s.gen
			s.mu.Unlock()
			return cl, g, nil
		}
		if !s.redialing {
			break
		}
		s.redialed.Wait()
	}
	s.redialing = true
	old := s.cl
	if s.addrs[1] != "" {
		s.active = 1 - s.active
	}
	addr := s.addrs[s.active]
	s.mu.Unlock()

	cl, err := DialAsync(addr, c.opts)

	s.mu.Lock()
	s.redialing = false
	s.redialed.Broadcast()
	if err != nil {
		// The broken client stays in place; the next recover attempt flips
		// to the other node again (alternating addresses across retries).
		s.mu.Unlock()
		return nil, 0, err
	}
	s.cl = cl
	s.gen++
	g := s.gen
	c.failovers.Add(1)
	s.mu.Unlock()
	if old != nil {
		old.Close() //lint:allow errdiscipline -- the old client is already broken; recovery replaces it wholesale
	}
	return cl, g, nil
}

// do sends one command to the shard owning placement (which also pins the
// pool connection, preserving per-key order), retrying through failover
// under the cluster's retry policy. Only transport errors trigger
// recovery; semantic errors arrive inside a reply and are returned as-is.
func (c *Cluster) do(placement string, args ...[]byte) (*reply, error) {
	return c.doOnShard(c.ring.Lookup(placement), placement, args...)
}

// doOnShard is do for an explicit shard index (scatter operations are not
// placed by key).
func (c *Cluster) doOnShard(i int, placement string, args ...[]byte) (rep *reply, err error) {
	err = c.shards[i].retry(c, func(cl *AsyncClient) (derr error) {
		rep, derr = cl.Do(placement, args...)
		return derr
	})
	return rep, err
}

// doBatch pipelines many commands onto one shard and waits for all
// replies. On any transport error the whole batch is retried (after
// recovery) — at-least-once, per the cluster contract.
func (sc *shardConn) doBatch(c *Cluster, placements []string, cmds [][][]byte) (reps []*reply, err error) {
	err = sc.retry(c, func(cl *AsyncClient) (berr error) {
		reps, berr = submitAll(cl, placements, cmds)
		return berr
	})
	return reps, err
}

// retry runs op against the shard's client under the cluster's retry
// policy. Every failed attempt recovers the shard connection — failing
// over to the other node when one exists — before the next.
func (sc *shardConn) retry(c *Cluster, op func(*AsyncClient) error) error {
	cl, gen := sc.client()
	first := true
	_, err := c.opts.Retry.Do(time.Sleep, nil, func() error {
		if !first {
			var rerr error
			if cl, gen, rerr = sc.recover(c, gen); rerr != nil {
				return rerr
			}
		}
		first = false
		return op(cl)
	})
	return err
}

// submitAll enqueues every command before waiting on any reply — the
// client-side half of pipelining: one burst out, one burst back.
func submitAll(cl *AsyncClient, placements []string, cmds [][][]byte) ([]*reply, error) {
	calls := make([]*call, len(cmds))
	for i, args := range cmds {
		ca, err := cl.submit(placements[i], args...)
		if err != nil {
			return nil, err
		}
		calls[i] = ca
	}
	reps := make([]*reply, len(calls))
	var firstErr error
	for i, ca := range calls {
		rep, err := ca.wait()
		if err != nil && firstErr == nil {
			firstErr = err
		}
		reps[i] = rep
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return reps, nil
}

// fanout runs fn once per shard, in parallel over the cluster's worker
// pool, and joins the per-shard errors in shard order — the deterministic
// merge every scatter operation builds on.
func (c *Cluster) fanout(fn func(shard int) error) error {
	errs := make([]error, len(c.shards))
	parallel.For(len(c.shards), parallel.Workers(c.opts.FanoutWorkers), 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			errs[i] = fn(i)
		}
	})
	return errors.Join(errs...)
}

// group splits keys into per-shard lists, preserving input order within
// each shard.
func (c *Cluster) group(keys []string) [][]string {
	groups := make([][]string, len(c.shards))
	for _, k := range keys {
		i := c.ring.Lookup(k)
		groups[i] = append(groups[i], k)
	}
	return groups
}

// Set stores value under key on its owning shard.
func (c *Cluster) Set(key string, value []byte) error {
	rep, err := c.do(key, []byte("SET"), []byte(key), value)
	if err != nil {
		return err
	}
	if rep.kind == '-' {
		return errors.New(rep.str)
	}
	return nil
}

// Get fetches key from its owning shard; missing keys return ErrNoSuchKey.
func (c *Cluster) Get(key string) ([]byte, error) {
	rep, err := c.do(key, []byte("GET"), []byte(key))
	if err != nil {
		return nil, err
	}
	if rep.kind != '$' {
		return nil, errProtocol
	}
	if rep.bulk == nil {
		return nil, ErrNoSuchKey
	}
	return rep.bulk, nil
}

// Del removes keys (grouped per owning shard, deleted in parallel),
// returning how many existed.
func (c *Cluster) Del(keys ...string) (int, error) {
	groups := c.group(keys)
	counts := make([]int, len(groups))
	err := c.fanout(func(i int) error {
		if len(groups[i]) == 0 {
			return nil
		}
		cmds := make([][][]byte, len(groups[i]))
		for j, k := range groups[i] {
			cmds[j] = [][]byte{[]byte("DEL"), []byte(k)}
		}
		reps, err := c.shards[i].doBatch(c, groups[i], cmds)
		if err != nil {
			return err
		}
		for _, rep := range reps {
			counts[i] += int(rep.n)
		}
		return nil
	})
	total := 0
	for _, n := range counts {
		total += n
	}
	return total, err
}

// RenameError is the typed failure of a cross-shard Rename. Cross-shard
// renames are copy-then-delete and therefore at-least-once, never atomic:
// on failure, Surviving names the key whose copy is known to hold the
// value, and Duplicated reports whether a second (stale) copy may also
// remain at Src. Callers that need exactly-once must delete the survivor
// themselves after acting on it.
type RenameError struct {
	Src, Dst   string
	Surviving  string
	Duplicated bool
	Err        error
}

// Error implements error.
func (e *RenameError) Error() string {
	state := "value survives at " + e.Surviving
	if e.Duplicated {
		state += " (stale copy may remain at " + e.Src + ")"
	}
	return fmt.Sprintf("kvstore: rename %s -> %s: %s: %v", e.Src, e.Dst, state, e.Err)
}

// Unwrap exposes the underlying transport or reply error.
func (e *RenameError) Unwrap() error { return e.Err }

// Rename moves src to dst. On one shard it is the server's atomic RENAME;
// across shards it degrades to copy-then-delete: the value is written to
// dst before src is deleted, so the value is never lost — but a failure
// between the two steps leaves both copies alive. The returned
// *RenameError names the surviving copy.
func (c *Cluster) Rename(src, dst string) error {
	ss, ds := c.shardFor(src), c.shardFor(dst)
	if ss == ds {
		rep, err := c.do(src, []byte("RENAME"), []byte(src), []byte(dst))
		if err != nil {
			return err
		}
		if rep.kind == '-' {
			return ErrNoSuchKey
		}
		return nil
	}
	v, err := c.Get(src)
	if err != nil {
		return err // nothing moved; src state unchanged
	}
	if err := c.Set(dst, v); err != nil {
		return &RenameError{Src: src, Dst: dst, Surviving: src, Err: err}
	}
	if _, err := c.Del(src); err != nil {
		return &RenameError{Src: src, Dst: dst, Surviving: dst, Duplicated: true, Err: err}
	}
	return nil
}

// Keys scans every shard for the pattern in parallel and merges the
// results, sorted.
func (c *Cluster) Keys(pattern string) ([]string, error) {
	per := make([][]string, len(c.shards))
	err := c.fanout(func(i int) error {
		rep, err := c.doOnShard(i, "", []byte("KEYS"), []byte(pattern))
		if err != nil {
			return err
		}
		if rep.kind != '*' {
			return errProtocol
		}
		ks := make([]string, len(rep.array))
		for j, b := range rep.array {
			ks[j] = string(b)
		}
		per[i] = ks
		return nil
	})
	if err != nil {
		return nil, err
	}
	var all []string
	for _, ks := range per {
		all = append(all, ks...)
	}
	sort.Strings(all)
	return all, nil
}

// MGet fetches many keys as a map; missing keys are absent. A convenience
// wrapper over MGetSlice.
func (c *Cluster) MGet(keys []string) (map[string][]byte, error) {
	vals, err := c.MGetSlice(keys)
	if err != nil {
		return nil, err
	}
	out := make(map[string][]byte, len(keys))
	for j, k := range keys {
		if vals[j] != nil {
			out[k] = vals[j]
		}
	}
	return out, nil
}

// MGetSlice fetches many keys positionally — vals[i] is the value of
// keys[i], nil if missing. One pipelined MGET per owning shard, fanned out
// in parallel; per-shard results land in a slice indexed by the key's
// original position, so there is no per-key map traffic at all. This is
// the read half of the feedback fast path.
func (c *Cluster) MGetSlice(keys []string) ([][]byte, error) {
	idx := make([][]int, len(c.shards))
	for j, k := range keys {
		i := c.ring.Lookup(k)
		idx[i] = append(idx[i], j)
	}
	vals := make([][]byte, len(keys))
	err := c.fanout(func(i int) error {
		if len(idx[i]) == 0 {
			return nil
		}
		args := make([][]byte, 1, len(idx[i])+1)
		args[0] = []byte("MGET")
		for _, j := range idx[i] {
			args = append(args, []byte(keys[j]))
		}
		rep, err := c.doOnShard(i, "", args...)
		if err != nil {
			return err
		}
		if rep.kind != '*' || len(rep.array) != len(idx[i]) {
			return errProtocol
		}
		for n, j := range idx[i] {
			vals[j] = rep.array[n]
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return vals, nil
}

// msetChunk bounds pairs per MSET command: large enough that the per-key
// cost is one parse and one map assign (not a command round trip), small
// enough that chunks still pipeline and bursts stay bounded in memory.
const msetChunk = 256

// MSet stores many key-value pairs: keys are sorted (wire order must be a
// pure function of the data, never of map iteration) and handed to
// MSetSlice.
func (c *Cluster) MSet(kv map[string][]byte) error {
	keys := make([]string, 0, len(kv))
	for k := range kv {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	vals := make([][]byte, len(keys))
	for i, k := range keys {
		vals[i] = kv[k]
	}
	return c.MSetSlice(keys, vals)
}

// MSetSlice stores vals[i] under keys[i]: keys are grouped per shard in
// input order, and each shard's group rides chunked multi-key MSET
// commands, all shards in parallel. This is the write half of the feedback
// fast path — per-key cost inside an MSET is roughly an order of magnitude
// below a SET round trip, which is where the pipelined client's bulk-write
// speedup comes from. Wire order is a pure function of the input order;
// callers feeding from a map must sort first (MSet does).
func (c *Cluster) MSetSlice(keys []string, vals [][]byte) error {
	if len(keys) != len(vals) {
		return fmt.Errorf("kvstore: MSetSlice: %d keys, %d values", len(keys), len(vals))
	}
	idx := make([][]int, len(c.shards))
	for j, k := range keys {
		i := c.ring.Lookup(k)
		idx[i] = append(idx[i], j)
	}
	return c.fanout(func(i int) error {
		g := idx[i]
		if len(g) == 0 {
			return nil
		}
		nChunks := (len(g) + msetChunk - 1) / msetChunk
		placements := make([]string, 0, nChunks)
		cmds := make([][][]byte, 0, nChunks)
		for lo := 0; lo < len(g); lo += msetChunk {
			hi := lo + msetChunk
			if hi > len(g) {
				hi = len(g)
			}
			args := make([][]byte, 1, 1+2*(hi-lo))
			args[0] = []byte("MSET")
			for _, j := range g[lo:hi] {
				args = append(args, []byte(keys[j]), vals[j])
			}
			placements = append(placements, keys[g[lo]])
			cmds = append(cmds, args)
		}
		reps, err := c.shards[i].doBatch(c, placements, cmds)
		if err != nil {
			return err
		}
		for _, rep := range reps {
			if rep.kind == '-' {
				return errors.New(rep.str)
			}
		}
		return nil
	})
}

// Size sums key counts across shards, queried in parallel.
func (c *Cluster) Size() (int, error) {
	counts := make([]int, len(c.shards))
	err := c.fanout(func(i int) error {
		rep, rerr := c.doOnShard(i, "", []byte("DBSIZE"))
		if rerr != nil {
			return rerr
		}
		counts[i] = int(rep.n)
		return nil
	})
	total := 0
	for _, n := range counts {
		total += n
	}
	return total, err
}

// FlushAll clears every shard in parallel.
func (c *Cluster) FlushAll() error {
	return c.fanout(func(i int) error {
		_, err := c.doOnShard(i, "", []byte("FLUSHALL"))
		return err
	})
}

// Close closes all shard clients.
func (c *Cluster) Close() error {
	var first error
	for _, sc := range c.shards {
		if sc == nil || sc.cl == nil {
			continue
		}
		if err := sc.cl.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
