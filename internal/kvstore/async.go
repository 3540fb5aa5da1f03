package kvstore

import (
	"bufio"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// AsyncClient is the pipelined connection to one server. A client that
// serializes every caller behind one mutex pays one full round trip per
// command; under the four concurrent WM tasks that means the feedback loop
// advances one RTT at a time. The AsyncClient decouples submission from
// completion:
//
//   - a connection has no goroutines of its own. Callers queue commands
//     and then drive the socket themselves while they wait: one takes the
//     writer role and flushes everything queued in a single buffered write,
//     one takes the reader role and completes replies in FIFO wire order.
//     A serial caller on an idle connection writes and reads on its own
//     goroutine, with no handoff; N concurrent callers still share one
//     flush per burst instead of queueing for round trips;
//   - an in-flight window (ClientOptions.Window) bounds outstanding
//     requests per connection: a submitter that finds it full drives the
//     connection until a slot frees, instead of buffering without bound;
//   - a small connection pool (ClientOptions.PoolSize) multiplies the
//     window. Requests carry an affinity key and all requests with the
//     same key ride the same connection, so per-key operation order is
//     exactly submission order end to end — the property replication
//     forwarding relies on.
//
// A broken connection fails its outstanding and subsequent requests with
// the underlying error; recovery (redial, failover to a replica) is the
// cluster layer's job, where the replacement address is known.
type AsyncClient struct {
	addr   string
	pipes  []*pipe
	closed atomic.Bool
}

// errClientClosed is returned for submissions after Close.
var errClientClosed = errors.New("kvstore: client closed")

// DialAsync opens a pipelined client with opts.PoolSize connections to
// addr. Dial failures close any connections already opened.
func DialAsync(addr string, opts ClientOptions) (*AsyncClient, error) {
	opts = opts.withDefaults()
	a := &AsyncClient{addr: addr}
	for i := 0; i < opts.PoolSize; i++ {
		p, err := newPipe(addr, opts)
		if err != nil {
			return nil, errors.Join(err, a.Close())
		}
		a.pipes = append(a.pipes, p)
	}
	return a, nil
}

// Addr returns the remote address the client was dialed against.
func (a *AsyncClient) Addr() string { return a.addr }

// Do submits one command and blocks for its reply. affinity selects the
// pool connection: commands sharing an affinity key are executed in
// submission order. An empty affinity pins to the first connection.
func (a *AsyncClient) Do(affinity string, args ...[]byte) (*reply, error) {
	c, err := a.submit(affinity, args...)
	if err != nil {
		return nil, err
	}
	return c.wait()
}

// submit queues one command without waiting for its reply; call.wait
// completes it. A pipe that Close has failed fails the call with
// errClientClosed, so a submitter racing Close never hangs.
func (a *AsyncClient) submit(affinity string, args ...[]byte) (*call, error) {
	if a.closed.Load() {
		return nil, errClientClosed
	}
	p := a.pipes[a.pick(affinity)]
	c := &call{p: p, args: args}
	p.submit(c)
	return c, nil
}

// pick maps an affinity key onto a pool connection, allocation-free.
func (a *AsyncClient) pick(affinity string) int {
	if affinity == "" || len(a.pipes) == 1 {
		return 0
	}
	return int(fnv64a(affinity) % uint64(len(a.pipes)))
}

// Close fails every outstanding request with errClientClosed and closes
// the connections. It does not wait for a caller stuck in socket I/O:
// closing the socket is what unsticks it.
func (a *AsyncClient) Close() error {
	if a.closed.Swap(true) {
		return nil
	}
	var errs []error
	for _, p := range a.pipes {
		errs = append(errs, p.fail(errClientClosed))
	}
	return errors.Join(errs...)
}

// ---------------------------------------------------------------------------
// pipe: one pipelined connection

// call is one request: arguments on the way out, a reply or error on the
// way back. rep, err and done are guarded by p.mu.
type call struct {
	p    *pipe
	args [][]byte
	rep  *reply
	err  error
	done bool
}

// wait drives the call's pipe until the call completes.
func (c *call) wait() (*reply, error) { return c.p.wait(c) }

// pipe is one connection driven by its callers. Calls move pending →
// inflight → done, each list in wire order. At most one caller holds the
// writer role (owning w) and at most one the reader role (owning r); a
// role is claimed under mu, its socket I/O runs with mu released, and its
// result is settled under mu again.
type pipe struct {
	conn net.Conn
	w    *bufio.Writer
	r    *bufio.Reader
	opts ClientOptions

	mu       sync.Mutex
	cond     sync.Cond // signalled whenever a role is released or a call completes
	pending  []*call   // submitted, not yet handed to a writer
	inflight []*call   // handed to a writer, awaiting replies
	writing  bool
	reading  bool
	broken   error // the first transport error, or errClientClosed
}

func newPipe(addr string, opts ClientOptions) (*pipe, error) {
	conn, err := net.DialTimeout("tcp", addr, opts.DialTimeout)
	if err != nil {
		return nil, err
	}
	tuneConn(conn)
	if opts.WrapConn != nil {
		conn = opts.WrapConn(conn)
	}
	p := &pipe{
		conn: conn,
		w:    bufio.NewWriterSize(conn, ioBufSize),
		r:    bufio.NewReaderSize(conn, ioBufSize),
		opts: opts,
	}
	p.cond.L = &p.mu
	return p, nil
}

// submit queues c. While the window is full it drives the pipe until the
// older half of the outstanding calls completes: the replies that free
// window slots only come back for commands someone writes and someone
// reads, and a single-goroutine burst larger than the window has nobody
// else to do it. Freeing half rather than one slot lets the rest of a long
// burst leave in half-window flushes instead of one flush per command.
func (p *pipe) submit(c *call) {
	p.mu.Lock()
	for p.broken == nil && len(p.pending)+len(p.inflight) >= p.opts.Window {
		half, queue := (p.opts.Window-1)/2, p.inflight
		if half >= len(queue) {
			half, queue = half-len(queue), p.pending
		}
		target := queue[half]
		p.mu.Unlock()
		p.wait(target) //lint:allow errdiscipline -- the target call's owner reads its outcome; this only frees slots
		p.mu.Lock()
	}
	if p.broken != nil {
		c.done, c.err = true, p.broken
	} else {
		p.pending = append(p.pending, c)
	}
	p.mu.Unlock()
}

// wait drives the pipe until c completes. Each pass claims whichever role
// has work and no holder — the writer role first, so queued commands reach
// the wire before anyone blocks on a reply — or sleeps until a role is
// released or a call completes.
func (p *pipe) wait(c *call) (*reply, error) {
	p.mu.Lock()
	for !c.done {
		switch {
		case !p.writing && len(p.pending) > 0:
			batch := p.pending
			p.pending = nil
			p.inflight = append(p.inflight, batch...)
			p.writing = true
			p.mu.Unlock()
			err := p.write(batch)
			if err != nil {
				p.fail(err) //lint:allow errdiscipline -- the socket close is best-effort; the calls carry err
			}
			p.mu.Lock()
			p.writing = false
			p.cond.Broadcast()
		case !p.reading && len(p.inflight) > 0:
			p.reading = true
			p.mu.Unlock()
			rep, err := p.read()
			if err != nil {
				p.fail(err) //lint:allow errdiscipline -- the socket close is best-effort; the calls carry err
			}
			p.mu.Lock()
			p.reading = false
			if err == nil && p.broken == nil {
				oldest := p.inflight[0]
				p.inflight = p.inflight[1:]
				oldest.done, oldest.rep = true, rep
			}
			p.cond.Broadcast()
		default:
			p.cond.Wait()
		}
	}
	rep, err := c.rep, c.err
	p.mu.Unlock()
	return rep, err
}

// write encodes batch and flushes it once — the writer role's I/O.
func (p *pipe) write(batch []*call) error {
	if p.opts.WriteTimeout > 0 {
		// Socket deadlines are wall-clock by nature; they bound I/O stalls
		// and never influence replayed state.
		//lint:allow determinism -- wall-clock socket deadline, invisible to replay state
		if err := p.conn.SetWriteDeadline(time.Now().Add(p.opts.WriteTimeout)); err != nil {
			return err
		}
	}
	for _, c := range batch {
		if err := writeCommand(p.w, c.args...); err != nil {
			return err
		}
	}
	return p.w.Flush()
}

// read reads one reply — the reader role's I/O.
func (p *pipe) read() (*reply, error) {
	if p.opts.ReadTimeout > 0 {
		//lint:allow determinism -- wall-clock socket deadline, invisible to replay state
		if err := p.conn.SetReadDeadline(time.Now().Add(p.opts.ReadTimeout)); err != nil {
			return nil, err
		}
	}
	return readReply(p.r)
}

// fail records the pipe's first error, fails every pending and in-flight
// call with it, and closes the socket — which is what unblocks a role
// holder stuck in I/O. Later calls are no-ops returning nil.
func (p *pipe) fail(err error) error {
	p.mu.Lock()
	first := p.broken == nil
	if first {
		p.broken = err
		for _, c := range append(p.inflight, p.pending...) {
			c.done, c.err = true, err
		}
		p.inflight, p.pending = nil, nil
		p.cond.Broadcast()
	}
	p.mu.Unlock()
	if !first {
		return nil
	}
	return p.conn.Close()
}
