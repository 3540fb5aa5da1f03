package kvstore

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
)

// Server serves one Engine over TCP. One goroutine per connection, a
// buffered writer flushed once per request batch — the standard shape for a
// high-throughput in-memory store.
//
// A server may act as a shard primary by naming a replica address
// (SetReplica): every mutating command is then forwarded to the replica
// and the replica's acknowledgement is awaited before the client reply is
// flushed. A client that has seen OK therefore knows the write exists on
// both nodes — killing the primary at any instant loses no acknowledged
// state, which is the invariant the failover chaos tests assert. If the
// replica link itself fails, the primary degrades to standalone serving
// (availability over replication in the single-failure model) and reports
// it via ReplicaDegraded.
type Server struct {
	engine      *Engine
	ln          net.Listener
	replicaAddr string

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup

	// replDegraded is set once the replica link fails.
	replDegraded atomic.Bool
}

// NewServer wraps an engine (NewEngine() if nil).
func NewServer(engine *Engine) *Server {
	if engine == nil {
		engine = NewEngine()
	}
	return &Server{engine: engine, conns: make(map[net.Conn]struct{})}
}

// SetReplica names the replica this server forwards mutations to,
// promoting it to shard primary. Must be called before Listen. An empty
// addr (the default) serves standalone.
func (s *Server) SetReplica(addr string) { s.replicaAddr = addr }

// ReplicaDegraded reports whether the replica link failed and the primary
// fell back to standalone serving.
func (s *Server) ReplicaDegraded() bool { return s.replDegraded.Load() }

// Engine returns the server's engine (shared with embedded users).
func (s *Server) Engine() *Engine { return s.engine }

// Listen binds addr ("127.0.0.1:0" for an ephemeral test port) and starts
// accepting connections. It returns the bound address immediately.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("kvstore: %w", err)
	}
	s.ln = ln
	s.wg.Add(1)
	go s.acceptLoop()
	return ln.Addr().String(), nil
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		tuneConn(conn)
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

// replLink is one connection's private pipe to the shard replica. Each
// inbound connection forwards its own mutations over its own link, so the
// order of a connection's mutations on the replica matches the primary —
// and since the cluster client pins each key to one connection, per-key
// order is preserved end to end.
type replLink struct {
	conn    net.Conn
	w       *bufio.Writer
	r       *bufio.Reader
	pending int
}

// mutates reports whether a command changes the keyspace (and must
// therefore be forwarded to the replica). The switch on string(cmd) is
// allocation-free (the compiler special-cases the conversion).
func mutates(cmd []byte) bool {
	switch string(cmd) {
	case "SET", "MSET", "DEL", "RENAME", "FLUSHALL":
		return true
	}
	return false
}

// upperASCII uppercases the command name in place — the buffer is owned by
// this request (readCommand allocates fresh), so dispatch never pays a
// strings.ToUpper allocation.
func upperASCII(b []byte) {
	for i, c := range b {
		if 'a' <= c && c <= 'z' {
			b[i] = c - ('a' - 'A')
		}
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	r := bufio.NewReaderSize(conn, ioBufSize)
	w := bufio.NewWriterSize(conn, ioBufSize)
	var rl *replLink
	defer func() {
		if rl != nil {
			rl.conn.Close()
		}
	}()
	for {
		args, err := readCommand(r)
		if err != nil {
			return
		}
		upperASCII(args[0])
		if s.replicaAddr != "" && mutates(args[0]) && !s.replDegraded.Load() {
			rl = s.forward(rl, args)
		}
		if err := s.dispatch(w, args); err != nil {
			return
		}
		// Flush only when no further pipelined request is already buffered:
		// this is what makes pipelined batches fast. Replica acks are
		// collected first, so a flushed client reply implies the replica
		// holds the write.
		if r.Buffered() == 0 {
			if rl != nil && rl.pending > 0 {
				rl = s.syncReplica(rl)
			}
			if err := w.Flush(); err != nil {
				return
			}
		}
	}
}

// forward pipelines one mutation onto the replica link, dialing it lazily.
// Any link failure degrades the server to standalone (nil link).
func (s *Server) forward(rl *replLink, args [][]byte) *replLink {
	if rl == nil {
		conn, err := net.DialTimeout("tcp", s.replicaAddr, dialTimeout)
		if err != nil {
			s.replDegraded.Store(true)
			return nil
		}
		tuneConn(conn)
		rl = &replLink{
			conn: conn,
			w:    bufio.NewWriterSize(conn, ioBufSize),
			r:    bufio.NewReaderSize(conn, ioBufSize),
		}
	}
	if err := writeCommand(rl.w, args...); err != nil {
		s.degradeReplica(rl)
		return nil
	}
	rl.pending++
	return rl
}

// syncReplica flushes the replica link and consumes one ack per forwarded
// mutation, returning the link (or nil after degrading on failure).
func (s *Server) syncReplica(rl *replLink) *replLink {
	if err := rl.w.Flush(); err != nil {
		s.degradeReplica(rl)
		return nil
	}
	for ; rl.pending > 0; rl.pending-- {
		if _, err := readReply(rl.r); err != nil {
			s.degradeReplica(rl)
			return nil
		}
	}
	return rl
}

func (s *Server) degradeReplica(rl *replLink) {
	s.replDegraded.Store(true)
	rl.conn.Close() // best-effort: link already failed
}

func (s *Server) dispatch(w *bufio.Writer, args [][]byte) error {
	e := s.engine
	switch string(args[0]) {
	case "PING":
		return writeSimple(w, "PONG")
	case "SET":
		if len(args) != 3 {
			return writeError(w, "wrong number of arguments for SET")
		}
		// Argument buffers are owned by this request; hand the value to the
		// engine without a second copy.
		e.setOwned(string(args[1]), args[2])
		return writeSimple(w, "OK")
	case "MSET":
		if len(args) < 3 || len(args)%2 != 1 {
			return writeError(w, "wrong number of arguments for MSET")
		}
		e.msetOwned(args[1:])
		return writeSimple(w, "OK")
	case "GET":
		if len(args) != 2 {
			return writeError(w, "wrong number of arguments for GET")
		}
		v, ok := e.getRef(args[1])
		if !ok {
			return writeBulk(w, nil)
		}
		return writeBulk(w, v)
	case "DEL":
		if len(args) < 2 {
			return writeError(w, "wrong number of arguments for DEL")
		}
		keys := make([]string, len(args)-1)
		for i, a := range args[1:] {
			keys[i] = string(a)
		}
		return writeInt(w, int64(e.Del(keys...)))
	case "EXISTS":
		if len(args) != 2 {
			return writeError(w, "wrong number of arguments for EXISTS")
		}
		if e.Exists(string(args[1])) {
			return writeInt(w, 1)
		}
		return writeInt(w, 0)
	case "KEYS":
		if len(args) != 2 {
			return writeError(w, "wrong number of arguments for KEYS")
		}
		ks := e.Keys(string(args[1]))
		items := make([][]byte, len(ks))
		for i, k := range ks {
			items[i] = []byte(k)
		}
		return writeArray(w, items)
	case "RENAME":
		if len(args) != 3 {
			return writeError(w, "wrong number of arguments for RENAME")
		}
		if err := e.Rename(string(args[1]), string(args[2])); err != nil {
			return writeError(w, "no such key")
		}
		return writeSimple(w, "OK")
	case "MGET":
		if len(args) < 2 {
			return writeError(w, "wrong number of arguments for MGET")
		}
		// Serialize references straight out of the engine — stored values
		// are immutable, so no per-key clone on the read path.
		return writeArray(w, e.mgetRef(args[1:]))
	case "DBSIZE":
		return writeInt(w, int64(e.Size()))
	case "FLUSHALL":
		e.Flush()
		return writeSimple(w, "OK")
	default:
		return writeError(w, "unknown command '"+sanitizeCmd(string(args[0]))+"'")
	}
}

func sanitizeCmd(c string) string {
	c = strings.Map(func(r rune) rune {
		if r < 0x20 || r > 0x7e {
			return '?'
		}
		return r
	}, c)
	if len(c) > 32 {
		c = c[:32]
	}
	return c
}

// Close stops accepting, closes every connection, and waits for handlers.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	//lint:allow determinism -- teardown close order of live sockets is inherently unordered
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	var err error
	if s.ln != nil {
		err = s.ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
	return err
}
