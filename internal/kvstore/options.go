package kvstore

import (
	"net"
	"time"

	"mummi/internal/retry"
)

// ClientOptions parameterizes the kvstore client — the pipelined
// AsyncClient and the sharded Cluster built on it. The zero value means
// 5s dial timeout, no read/write deadlines, default retry policy.
type ClientOptions struct {
	// DialTimeout bounds each TCP dial (default 5s).
	DialTimeout time.Duration
	// ReadTimeout bounds each reply read; 0 (the default) means no
	// deadline.
	ReadTimeout time.Duration
	// WriteTimeout bounds each command write; 0 means no deadline.
	WriteTimeout time.Duration
	// Retry governs the cluster's shard recovery attempts. Zero value =
	// retry defaults (4 attempts, 100ms base backoff).
	Retry retry.Policy
	// PoolSize is the number of pipelined connections an AsyncClient
	// opens per node (default 4). Requests for the same key always ride
	// the same connection, preserving per-key ordering end to end.
	PoolSize int
	// Window is the per-connection in-flight request bound (default 128):
	// the writer goroutine stops accepting new requests for a connection
	// once Window replies are outstanding, providing backpressure instead
	// of unbounded buffering.
	Window int
	// VNodes is the per-shard virtual-node count for the placement ring
	// (default 128).
	VNodes int
	// FanoutWorkers bounds the parallel per-shard fan-out of scatter
	// operations (Keys/MGet/MSet/Del/Size/FlushAll); <= 0 means
	// GOMAXPROCS, the repo-wide parallel.Workers convention.
	FanoutWorkers int
	// WrapConn, when non-nil, wraps every dialed connection before use —
	// the hook for transport middleware (TLS, byte accounting, or a test's
	// interconnect-latency model). The wrapper sees the connection after
	// kernel-buffer tuning.
	WrapConn func(conn net.Conn) net.Conn
}

// Defaults for the zero ClientOptions.
const (
	DefaultDialTimeout = 5 * time.Second
	DefaultPoolSize    = 4
	DefaultWindow      = 128
)

func (o ClientOptions) withDefaults() ClientOptions {
	if o.DialTimeout <= 0 {
		o.DialTimeout = DefaultDialTimeout
	}
	if o.PoolSize <= 0 {
		o.PoolSize = DefaultPoolSize
	}
	if o.Window <= 0 {
		o.Window = DefaultWindow
	}
	if o.VNodes <= 0 {
		o.VNodes = defaultVNodes
	}
	return o
}
