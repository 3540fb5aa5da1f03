package kvstore

import (
	"net"
	"time"
)

// ClientOptions parameterizes the kvstore client — the pipelined
// AsyncClient and the sharded Cluster built on it. The zero value is the
// client every caller runs; the shard recovery schedule is the retry
// package's, and the pool and window sizes are the constants below.
type ClientOptions struct {
	// WrapConn, when non-nil, wraps every dialed connection before use —
	// the hook for transport middleware (TLS, byte accounting, or a test's
	// interconnect-latency model). The wrapper sees the connection after
	// kernel-buffer tuning.
	WrapConn func(conn net.Conn) net.Conn
}

const (
	// poolSize is the number of pipelined connections an AsyncClient opens
	// per node. Requests for the same key always ride the same connection,
	// preserving per-key ordering end to end.
	poolSize = 4
	// window is the per-connection in-flight request bound: a submitter
	// that finds window replies outstanding drives the connection until
	// slots free, providing backpressure instead of unbounded buffering.
	window = 128
)

// dialTimeout bounds every TCP dial: client pipes and a primary's replica
// link. Reads and writes have no deadline: a peer that drops its
// connection surfaces as a transport error, which the cluster fails over on.
const dialTimeout = 5 * time.Second
