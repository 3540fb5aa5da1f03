package kvstore

import (
	"net"
	"time"

	"mummi/internal/retry"
)

// ClientOptions parameterizes the kvstore client — the pipelined
// AsyncClient and the sharded Cluster built on it. The zero value means
// the default retry policy, DefaultPoolSize connections per node and a
// DefaultWindow in-flight bound per connection.
type ClientOptions struct {
	// Retry governs the cluster's shard recovery attempts. Zero value =
	// retry defaults (4 attempts, 100ms base backoff).
	Retry retry.Policy
	// PoolSize is the number of pipelined connections an AsyncClient
	// opens per node (default 4). Requests for the same key always ride
	// the same connection, preserving per-key ordering end to end.
	PoolSize int
	// Window is the per-connection in-flight request bound (default 128):
	// a submitter that finds Window replies outstanding drives the
	// connection until slots free, providing backpressure instead of
	// unbounded buffering.
	Window int
	// WrapConn, when non-nil, wraps every dialed connection before use —
	// the hook for transport middleware (TLS, byte accounting, or a test's
	// interconnect-latency model). The wrapper sees the connection after
	// kernel-buffer tuning.
	WrapConn func(conn net.Conn) net.Conn
}

// Defaults for the zero ClientOptions.
const (
	DefaultPoolSize = 4
	DefaultWindow   = 128
)

// dialTimeout bounds every TCP dial: client pipes and a primary's replica
// link. Reads and writes have no deadline: a peer that drops its
// connection surfaces as a transport error, which the cluster fails over on.
const dialTimeout = 5 * time.Second

func (o ClientOptions) withDefaults() ClientOptions {
	if o.PoolSize <= 0 {
		o.PoolSize = DefaultPoolSize
	}
	if o.Window <= 0 {
		o.Window = DefaultWindow
	}
	return o
}
