package kvstore

import (
	"errors"
	"fmt"
	"strings"

	"mummi/internal/datastore"
)

// nsSep joins namespace and key into the flat cluster keyspace. Namespaces
// and keys may not contain it.
const nsSep = ":"

// Store adapts a Cluster to the abstract data interface: namespaces become
// key prefixes, Keys becomes a prefix scan, Move becomes a rename. This is
// MuMMI's "redis interface": any component can talk to it while cluster
// details stay hidden. Each method checks its names and makes one Cluster
// call; the Cluster places ns:key by the bare key (see placement), so a
// move between namespaces never leaves the key's shard or pipe.
type Store struct{ c *Cluster }

// NewStore wraps an existing cluster connection.
func NewStore(c *Cluster) *Store { return &Store{c: c} }

func init() {
	datastore.Register(datastore.BackendKV, func(cfg datastore.Config) (datastore.Store, error) {
		if len(cfg.Replicas) > 0 && len(cfg.Replicas) != len(cfg.Addrs) {
			return nil, fmt.Errorf("kvstore: %d addrs but %d replicas", len(cfg.Addrs), len(cfg.Replicas))
		}
		shards := make([]Shard, len(cfg.Addrs))
		for i, a := range cfg.Addrs {
			shards[i].Primary = a
			if len(cfg.Replicas) > 0 {
				shards[i].Replica = cfg.Replicas[i]
			}
		}
		cl, err := DialShards(shards, ClientOptions{})
		if err != nil {
			return nil, err
		}
		return NewStore(cl), nil
	})
}

func nsKey(ns, key string) (string, error) {
	if ns == "" || key == "" || strings.Contains(ns, nsSep) || strings.Contains(key, nsSep) {
		return "", fmt.Errorf("kvstore: invalid namespace/key %q/%q", ns, key)
	}
	return ns + nsSep + key, nil
}

// movePair names key in srcNS and in dstNS.
func movePair(srcNS, key, dstNS string) (src, dst string, err error) {
	if src, err = nsKey(srcNS, key); err != nil {
		return "", "", err
	}
	dst, err = nsKey(dstNS, key)
	return src, dst, err
}

func notFound(ns, key string) error { return fmt.Errorf("%w: %s/%s", datastore.ErrNotFound, ns, key) }

// Put implements datastore.Store.
func (s *Store) Put(ns, key string, data []byte) error {
	k, err := nsKey(ns, key)
	if err != nil {
		return err
	}
	return s.c.Set(k, data)
}

// Get implements datastore.Store.
func (s *Store) Get(ns, key string) ([]byte, error) {
	k, err := nsKey(ns, key)
	if err != nil {
		return nil, err
	}
	v, err := s.c.Get(k)
	if errors.Is(err, ErrNoSuchKey) {
		return nil, notFound(ns, key)
	}
	return v, err
}

// Delete implements datastore.Store.
func (s *Store) Delete(ns, key string) error {
	k, err := nsKey(ns, key)
	if err != nil {
		return err
	}
	n, err := s.c.Del(k)
	if err == nil && n == 0 {
		return notFound(ns, key)
	}
	return err
}

// Keys implements datastore.Store.
func (s *Store) Keys(ns string) ([]string, error) {
	if ns == "" || strings.Contains(ns, nsSep) {
		return nil, fmt.Errorf("kvstore: invalid namespace %q", ns)
	}
	full, err := s.c.Keys(ns + nsSep + "*")
	if err != nil {
		return nil, err
	}
	out := make([]string, len(full))
	for i, f := range full {
		out[i] = strings.TrimPrefix(f, ns+nsSep)
	}
	return out, nil
}

// Move implements datastore.Store ("renaming keys in the database"): one
// same-shard RENAME.
func (s *Store) Move(srcNS, key, dstNS string) error {
	src, dst, err := movePair(srcNS, key, dstNS)
	if err != nil {
		return err
	}
	n, err := s.c.Rename([]string{src}, []string{dst})
	if err == nil && n == 0 {
		return notFound(srcNS, key)
	}
	return err
}

// GetBatch implements datastore.BatchGetter: one MGET per owning shard,
// all shards in parallel (Cluster.MGetSlice).
func (s *Store) GetBatch(ns string, keys []string) (map[string][]byte, error) {
	full := make([]string, len(keys))
	for j, k := range keys {
		var err error
		if full[j], err = nsKey(ns, k); err != nil {
			return nil, err
		}
	}
	vals, err := s.c.MGetSlice(full)
	if err != nil {
		return nil, err
	}
	out := make(map[string][]byte, len(keys))
	for j, v := range vals {
		if v != nil {
			out[keys[j]] = v
		}
	}
	return out, nil
}

// MoveBatch implements datastore.BatchMover: one pipelined RENAME burst
// per owning shard, all shards in parallel (Cluster.Rename). Keys missing
// from srcNS are skipped, not errors.
func (s *Store) MoveBatch(srcNS string, keys []string, dstNS string) error {
	srcs, dsts := make([]string, len(keys)), make([]string, len(keys))
	for j, k := range keys {
		var err error
		if srcs[j], dsts[j], err = movePair(srcNS, k, dstNS); err != nil {
			return err
		}
	}
	_, err := s.c.Rename(srcs, dsts)
	return err
}

// Close implements datastore.Store.
func (s *Store) Close() error { return s.c.Close() }

// ---------------------------------------------------------------------------
// Test / deployment helpers

// launchServers starts n standalone in-process servers on ephemeral
// loopback ports.
func launchServers(n int) (servers []*Server, addrs []string, err error) {
	stop := func() {
		for _, s := range servers {
			s.Close() //lint:allow errdiscipline -- best-effort teardown of ephemeral in-process servers
		}
	}
	for i := 0; i < n; i++ {
		s := NewServer(nil)
		addr, lerr := s.Listen("127.0.0.1:0")
		if lerr != nil {
			stop()
			return nil, nil, lerr
		}
		servers = append(servers, s)
		addrs = append(addrs, addr)
	}
	return servers, addrs, nil
}

// LaunchCluster starts n in-process servers on ephemeral loopback ports and
// returns their addresses plus a shutdown function. MuMMI's redis interface
// "sets up a cluster of Redis servers ... allocated randomly to all compute
// nodes"; this is that setup step for a single-machine deployment.
func LaunchCluster(n int) (addrs []string, shutdown func(), err error) {
	servers, addrs, err := launchServers(n)
	if err != nil {
		return nil, nil, err
	}
	return addrs, func() {
		for _, s := range servers {
			s.Close() //lint:allow errdiscipline -- best-effort teardown of ephemeral in-process servers
		}
	}, nil
}

// Deployment is a replicated in-process cluster: n shards, each a primary
// forwarding writes to its replica. Tests and benchmarks use it to kill a
// primary mid-workload and assert nothing acknowledged is lost.
type Deployment struct {
	primaries []*Server
	replicas  []*Server
	shards    []Shard
}

// LaunchReplicated starts n primary/replica pairs on ephemeral loopback
// ports. Each replica comes up first (standalone), then its primary with
// forwarding configured.
func LaunchReplicated(n int) (*Deployment, error) {
	d := &Deployment{}
	for i := 0; i < n; i++ {
		replica := NewServer(nil)
		raddr, err := replica.Listen("127.0.0.1:0")
		if err != nil {
			d.Close()
			return nil, err
		}
		d.replicas = append(d.replicas, replica)
		primary := NewServer(nil)
		primary.SetReplica(raddr)
		paddr, err := primary.Listen("127.0.0.1:0")
		if err != nil {
			replica.Close() //lint:allow errdiscipline -- best-effort teardown on launch failure
			d.Close()
			return nil, err
		}
		d.primaries = append(d.primaries, primary)
		d.shards = append(d.shards, Shard{Primary: paddr, Replica: raddr})
	}
	return d, nil
}

// Shards returns the shard list to dial the deployment with.
func (d *Deployment) Shards() []Shard { return append([]Shard(nil), d.shards...) }

// Primary returns shard i's primary server.
func (d *Deployment) Primary(i int) *Server { return d.primaries[i] }

// Replica returns shard i's replica server.
func (d *Deployment) Replica(i int) *Server { return d.replicas[i] }

// KillPrimary hard-stops shard i's primary — connections drop mid-stream,
// exactly like a node crash as far as clients can tell.
func (d *Deployment) KillPrimary(i int) { d.primaries[i].Close() } //lint:allow errdiscipline -- deliberate crash injection; the error is the point

// Close stops every server.
func (d *Deployment) Close() {
	for _, s := range d.primaries {
		s.Close() //lint:allow errdiscipline -- best-effort teardown of ephemeral in-process servers
	}
	for _, s := range d.replicas {
		s.Close() //lint:allow errdiscipline -- best-effort teardown of ephemeral in-process servers
	}
}
