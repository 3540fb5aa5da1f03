package kvstore

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mummi/internal/parallel"
	"mummi/internal/retry"
)

// Cluster is the kvstore client — the one every caller uses, Store
// included. The paper ran a cluster of 20 Redis servers with compute nodes
// "allocated randomly" to them. A key's placement picks its shard on a
// consistent-hash ring (stable under topology change, allocation-free per
// lookup) and its pipe in that shard's pipelined AsyncClient; each shard
// is a primary with an optional replica; and multi-key operations send one
// pipelined burst per owning shard, all shards in parallel, with results
// merged in key order.
//
// Failover is client-side: when a shard's node stops answering, the
// cluster flips to the shard's other node, redials, and retries under the
// retry package's schedule. Together with the primary's synchronous
// write-forwarding (Server.SetReplica) this gives at-least-once semantics
// across a primary kill: every acknowledged write survives on the replica,
// and a retried burst may re-apply operations that were in flight — which
// is why a replayed rename of a key that already reached its destination
// counts as not moved, not as an error (see Rename).
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
	shards := make([]Shard, len(addrs))
	for i, a := range addrs {
		shards[i] = Shard{Primary: a}
	}
	return DialShards(shards, ClientOptions{})
}

// DialShards connects to a replicated cluster: one pipelined client per
// shard, initially against each shard's primary. Shard order is part of
// the placement function (ring identity is positional), so every client
// of a deployment must use the same shard list order.
func DialShards(shards []Shard, opts ClientOptions) (*Cluster, error) {
	if len(shards) == 0 {
		return nil, errors.New("kvstore: empty cluster")
	}
	c := &Cluster{opts: opts, ring: NewRing(len(shards))}
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

// Failovers reports how many times any shard switched nodes (promotion to
// replica or redial of the same node after a drop).
func (c *Cluster) Failovers() int64 { return c.failovers.Load() }

// placement is the part of a key that places it: the part after the first
// nsSep, or the whole key when there is none. It picks the key's shard and
// its pipe on that shard for every command that names the key. Changing
// only a key's namespace (ns:k to done:k, the feedback tagging primitive)
// therefore keeps both: a namespace move is one same-shard RENAME, and
// every operation on one bare key is ordered end to end, onto the replica
// included.
func placement(key string) string { return key[strings.IndexByte(key, nsSep[0])+1:] }

// shardOf returns the index of the shard owning key.
func (c *Cluster) shardOf(key string) int { return c.ring.Lookup(placement(key)) }

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

// do sends one command naming key to the key's shard on the key's pipe,
// retrying through failover under the retry package's schedule. Only
// transport errors trigger recovery; semantic errors arrive inside a reply
// and are returned as-is.
func (c *Cluster) do(key string, args ...[]byte) (*reply, error) {
	p := placement(key)
	return c.doOnShard(c.ring.Lookup(p), p, args...)
}

// doOnShard is do for an explicit shard index and pipe affinity (scatter
// commands name no single key).
func (c *Cluster) doOnShard(i int, affinity string, args ...[]byte) (rep *reply, err error) {
	err = c.shards[i].retry(c, func(cl *AsyncClient) (derr error) {
		rep, derr = cl.Do(affinity, args...)
		return derr
	})
	return rep, err
}

// doBatch pipelines many commands onto one shard and waits for all
// replies. On any transport error the whole batch is retried (after
// recovery) — at-least-once, per the cluster contract.
func (sc *shardConn) doBatch(c *Cluster, affinities []string, cmds [][][]byte) (reps []*reply, err error) {
	err = sc.retry(c, func(cl *AsyncClient) (berr error) {
		reps, berr = submitAll(cl, affinities, cmds)
		return berr
	})
	return reps, err
}

// retry runs op against the shard's client under the retry package's
// schedule. Every failed attempt recovers the shard connection — failing
// over to the other node when one exists — before the next.
func (sc *shardConn) retry(c *Cluster, op func(*AsyncClient) error) error {
	cl, gen := sc.client()
	first := true
	err := retry.Do(time.Sleep, nil, func() error {
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
func submitAll(cl *AsyncClient, affinities []string, cmds [][][]byte) ([]*reply, error) {
	calls := make([]*call, len(cmds))
	for i, args := range cmds {
		ca, err := cl.submit(affinities[i], args...)
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

// fanout runs fn once per shard, in parallel over GOMAXPROCS workers, and
// joins the per-shard errors in shard order — the deterministic merge
// every scatter operation builds on.
func (c *Cluster) fanout(fn func(shard int) error) error {
	errs := make([]error, len(c.shards))
	parallel.For(len(c.shards), parallel.Workers(0), 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			errs[i] = fn(i)
		}
	})
	return errors.Join(errs...)
}

// group lists, per shard, the positions of the keys it owns, in input
// order — the one per-shard grouping every multi-key operation uses.
func (c *Cluster) group(keys []string) [][]int {
	idx := make([][]int, len(c.shards))
	for j, k := range keys {
		i := c.shardOf(k)
		idx[i] = append(idx[i], j)
	}
	return idx
}

// each sends cmd(j) for every keys[j] to the key's shard on the key's pipe
// and returns the replies in key order. One key is one round trip; more
// ride one pipelined burst per owning shard, all shards in parallel.
func (c *Cluster) each(keys []string, cmd func(j int) [][]byte) ([]*reply, error) {
	reps := make([]*reply, len(keys))
	if len(keys) == 1 {
		rep, err := c.do(keys[0], cmd(0)...)
		reps[0] = rep
		return reps, err
	}
	idx := c.group(keys)
	err := c.fanout(func(i int) error {
		if len(idx[i]) == 0 {
			return nil
		}
		affinities := make([]string, len(idx[i]))
		cmds := make([][][]byte, len(idx[i]))
		for n, j := range idx[i] {
			affinities[n], cmds[n] = placement(keys[j]), cmd(j)
		}
		got, err := c.shards[i].doBatch(c, affinities, cmds)
		if err != nil {
			return err
		}
		for n, j := range idx[i] {
			reps[j] = got[n]
		}
		return nil
	})
	return reps, err
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

// Del removes keys, returning how many existed.
func (c *Cluster) Del(keys ...string) (int, error) {
	reps, err := c.each(keys, func(j int) [][]byte { return [][]byte{[]byte("DEL"), []byte(keys[j])} })
	if err != nil {
		return 0, err
	}
	n := 0
	for _, rep := range reps {
		n += int(rep.n)
	}
	return n, nil
}

// Rename moves each srcs[j] to dsts[j] with the server's atomic RENAME,
// returning how many sources existed. A pair must share its placement
// (ns:k to done:k), which keeps it on one shard; a missing source is
// skipped, not an error — that is what makes the failover retry of a
// partially applied burst safe: a rename that already happened simply
// reports "no such key" on replay.
func (c *Cluster) Rename(srcs, dsts []string) (int, error) {
	if len(srcs) != len(dsts) {
		return 0, fmt.Errorf("kvstore: Rename: %d sources, %d destinations", len(srcs), len(dsts))
	}
	for j, src := range srcs {
		if placement(src) != placement(dsts[j]) {
			return 0, fmt.Errorf("kvstore: rename %s -> %s changes the key's placement", src, dsts[j])
		}
	}
	reps, err := c.each(srcs, func(j int) [][]byte {
		return [][]byte{[]byte("RENAME"), []byte(srcs[j]), []byte(dsts[j])}
	})
	if err != nil {
		return 0, err
	}
	n := 0
	for _, rep := range reps {
		if rep.kind != '-' {
			n++
		}
	}
	return n, nil
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

// MGetSlice fetches many keys positionally — vals[i] is the value of
// keys[i], nil if missing. One MGET per owning shard, all shards in
// parallel; per-shard results land in a slice indexed by the key's
// original position, so there is no per-key map traffic at all. This is
// the read half of the feedback path (Store.GetBatch).
func (c *Cluster) MGetSlice(keys []string) ([][]byte, error) {
	idx := c.group(keys)
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

// MSetSlice stores vals[i] under keys[i]: keys are grouped per shard in
// input order, and each shard's group rides chunked multi-key MSET
// commands, all shards in parallel. Per-key cost inside an MSET is roughly
// an order of magnitude below a SET round trip, which is where the
// pipelined client's bulk-write speedup comes from. Wire order is a pure
// function of the input order.
func (c *Cluster) MSetSlice(keys []string, vals [][]byte) error {
	if len(keys) != len(vals) {
		return fmt.Errorf("kvstore: MSetSlice: %d keys, %d values", len(keys), len(vals))
	}
	idx := c.group(keys)
	return c.fanout(func(i int) error {
		g := idx[i]
		if len(g) == 0 {
			return nil
		}
		nChunks := (len(g) + msetChunk - 1) / msetChunk
		affinities := make([]string, 0, nChunks)
		cmds := make([][][]byte, 0, nChunks)
		for lo := 0; lo < len(g); lo += msetChunk {
			hi := min(lo+msetChunk, len(g))
			args := make([][]byte, 1, 1+2*(hi-lo))
			args[0] = []byte("MSET")
			for _, j := range g[lo:hi] {
				args = append(args, []byte(keys[j]), vals[j])
			}
			affinities = append(affinities, placement(keys[g[lo]]))
			cmds = append(cmds, args)
		}
		reps, err := c.shards[i].doBatch(c, affinities, cmds)
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
