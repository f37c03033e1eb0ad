package launch

import (
	"context"
	"fmt"
	"sync"
	"time"

	"candle/internal/mpi"
	"candle/internal/transport"
)

// JoinConfig configures one worker process's entry into a rendezvous
// round.
type JoinConfig struct {
	// Network and Rendezvous locate the control-plane socket.
	Network    string
	Rendezvous string
	// Transport names the data-plane transport ("inproc", "unix",
	// "tcp") the worker's rank links will use.
	Transport string
	// Proc is this worker's index in [0, procs); rank ranges are
	// assigned in proc order, so the mapping is deterministic.
	Proc int
	// Ranks is how many ranks this process hosts.
	Ranks int
	// Gen is the expected world generation; a mismatch against the
	// server's assignment (or a peer's hello) is rejected.
	Gen int
	// Timeout bounds the join plus the mesh handshake; 0 means a
	// generous default.
	Timeout time.Duration
}

// defaultJoinTimeout bounds a join when the caller does not care.
const defaultJoinTimeout = 30 * time.Second

// Session is one worker's membership in an assigned world: the rank
// range it hosts and a ready data-plane conn per boundary-crossing
// ordered rank pair, exactly what mpi.NewPartialWorld consumes.
type Session struct {
	WorldSize int
	Ranks     []int
	Gen       int
	Conns     map[mpi.Pair]transport.Conn

	listener transport.Listener
}

// NewWorld builds the partial world over this session's links. Call
// once per session; the links belong to the world afterwards (its Run
// tears them down).
func (s *Session) NewWorld() (*mpi.World, error) {
	return mpi.NewPartialWorld(s.WorldSize, s.Ranks, s.Conns)
}

// Close releases the session's data-plane listener. Conns handed to a
// world are closed by the world's own teardown; closing a session that
// never built a world also closes the conns.
func (s *Session) Close() error {
	var err error
	if s.listener != nil {
		err = s.listener.Close()
		s.listener = nil
	}
	return err
}

// CloseConns force-closes the data-plane conns, for sessions abandoned
// before a world took ownership.
func (s *Session) CloseConns() {
	for _, c := range s.Conns {
		c.Close()
	}
	s.Close()
}

// Join registers with the rendezvous server, waits for the assignment,
// then opens the full data-plane mesh: this side dials one conn per
// (local src, remote dst) pair and accepts one per (remote src, local
// dst) pair, each identified by a hello frame carrying (src, dst, gen).
func Join(cfg JoinConfig) (*Session, error) {
	if cfg.Timeout <= 0 {
		cfg.Timeout = defaultJoinTimeout
	}
	if cfg.Network == "" {
		cfg.Network = "unix"
	}
	deadline := time.Now().Add(cfg.Timeout)
	tr, err := transport.ByName(cfg.Transport)
	if err != nil {
		return nil, err
	}
	ln, err := tr.Listen("")
	if err != nil {
		return nil, fmt.Errorf("launch: proc %d data listener: %w", cfg.Proc, err)
	}

	assign, err := register(cfg, ln.Addr(), deadline)
	if err != nil {
		ln.Close()
		return nil, err
	}
	if assign.Gen != cfg.Gen {
		ln.Close()
		return nil, fmt.Errorf("launch: proc %d expected generation %d, assigned %d", cfg.Proc, cfg.Gen, assign.Gen)
	}

	sess := &Session{
		WorldSize: assign.World,
		Gen:       assign.Gen,
		Conns:     map[mpi.Pair]transport.Conn{},
		listener:  ln,
	}
	for r := assign.RankLo; r < assign.RankHi; r++ {
		sess.Ranks = append(sess.Ranks, r)
	}
	if err := sess.openMesh(tr, cfg, assign, deadline); err != nil {
		sess.CloseConns()
		return nil, err
	}
	return sess, nil
}

// register performs the control-plane exchange: one join line out, one
// assign (or error) line back.
func register(cfg JoinConfig, dataAddr string, deadline time.Time) (*wireMsg, error) {
	ctx, cancel := context.WithDeadline(context.Background(), deadline)
	defer cancel()
	var reply wireMsg
	if err := Call(ctx, cfg.Network, cfg.Rendezvous, wireMsg{
		Type: "join", Proc: cfg.Proc, Ranks: cfg.Ranks,
		Addr: dataAddr, Transport: cfg.Transport,
	}, &reply); err != nil {
		return nil, fmt.Errorf("launch: proc %d rendezvous: %w", cfg.Proc, err)
	}
	if reply.Type != "assign" {
		return nil, fmt.Errorf("launch: proc %d got unexpected %q reply", cfg.Proc, reply.Type)
	}
	return &reply, nil
}

// openMesh establishes every boundary-crossing link this process
// participates in. Accepts run concurrently with dials: every process
// dials its outgoing pairs while its listener collects the incoming
// ones, so the mesh forms without a global ordering.
func (s *Session) openMesh(tr transport.Transport, cfg JoinConfig, assign *wireMsg, deadline time.Time) error {
	local := make(map[int]bool, len(s.Ranks))
	for _, r := range s.Ranks {
		local[r] = true
	}
	expectIn := 0
	for _, p := range assign.Peers {
		if p.Proc == cfg.Proc {
			continue
		}
		expectIn += (p.RankHi - p.RankLo) * len(s.Ranks)
	}

	// Accept loop: collect hello-identified incoming links.
	type accepted struct {
		pair mpi.Pair
		conn transport.Conn
		err  error
	}
	inCh := make(chan accepted, expectIn)
	go func() {
		for i := 0; i < expectIn; i++ {
			conn, err := s.listener.Accept()
			if err != nil {
				inCh <- accepted{err: fmt.Errorf("accept: %w", err)}
				return
			}
			go func(conn transport.Conn) {
				var f transport.Frame
				if err := conn.RecvFrame(&f); err != nil {
					conn.Close()
					inCh <- accepted{err: fmt.Errorf("hello read: %w", err)}
					return
				}
				if f.Kind != transport.KindHello {
					conn.Close()
					inCh <- accepted{err: fmt.Errorf("expected hello frame, got kind %d", f.Kind)}
					return
				}
				src, dst, gen, err := transport.ParseHello(f.Raw)
				if err != nil {
					conn.Close()
					inCh <- accepted{err: err}
					return
				}
				if gen != cfg.Gen {
					conn.Close()
					inCh <- accepted{err: fmt.Errorf("stale hello from generation %d (want %d)", gen, cfg.Gen)}
					return
				}
				if !local[dst] || local[src] {
					conn.Close()
					inCh <- accepted{err: fmt.Errorf("hello for link %d->%d does not land here", src, dst)}
					return
				}
				inCh <- accepted{pair: mpi.Pair{Src: src, Dst: dst}, conn: conn}
			}(conn)
		}
	}()

	// Dial every outgoing pair concurrently.
	type dialed struct {
		pair mpi.Pair
		conn transport.Conn
		err  error
	}
	var outs []dialed
	outCh := make(chan dialed)
	dials := 0
	for _, p := range assign.Peers {
		if p.Proc == cfg.Proc {
			continue
		}
		for _, src := range s.Ranks {
			for dst := p.RankLo; dst < p.RankHi; dst++ {
				dials++
				go func(addr string, src, dst int) {
					conn, err := transport.DialRetry(tr, addr, time.Until(deadline))
					if err == nil {
						hello := transport.Frame{Kind: transport.KindHello, Raw: transport.HelloPayload(src, dst, cfg.Gen)}
						if err = conn.SendFrame(&hello); err == nil {
							err = conn.Flush()
						}
						if err != nil {
							conn.Close()
							conn = nil
						}
					}
					outCh <- dialed{pair: mpi.Pair{Src: src, Dst: dst}, conn: conn, err: err}
				}(p.Addr, src, dst)
			}
		}
	}

	var firstErr error
	timeout := time.NewTimer(time.Until(deadline))
	defer timeout.Stop()
	for got := 0; got < dials+expectIn; got++ {
		select {
		case d := <-outCh:
			if d.err != nil && firstErr == nil {
				firstErr = fmt.Errorf("launch: proc %d dial link %d->%d: %w", cfg.Proc, d.pair.Src, d.pair.Dst, d.err)
			}
			if d.conn != nil {
				outs = append(outs, d)
			}
		case a := <-inCh:
			if a.err != nil {
				if firstErr == nil {
					firstErr = fmt.Errorf("launch: proc %d incoming link: %w", cfg.Proc, a.err)
				}
				continue
			}
			if _, dup := s.Conns[a.pair]; dup && firstErr == nil {
				firstErr = fmt.Errorf("launch: proc %d duplicate incoming link %d->%d", cfg.Proc, a.pair.Src, a.pair.Dst)
			}
			s.Conns[a.pair] = a.conn
		case <-timeout.C:
			if firstErr == nil {
				firstErr = fmt.Errorf("launch: proc %d mesh handshake timed out (%d/%d links)", cfg.Proc, got, dials+expectIn)
			}
		}
		if firstErr != nil {
			break
		}
	}
	if firstErr != nil {
		for _, d := range outs {
			if d.conn != nil {
				d.conn.Close()
			}
		}
		return firstErr
	}
	for _, d := range outs {
		s.Conns[d.pair] = d.conn
	}
	return nil
}

// StartLocal runs a complete rendezvous round inside one process: a
// server plus procs workers of ranksPerProc ranks each, all joining
// over the given data-plane transport. It exists for tests, benchmarks,
// and the scenario harness, which need real multi-link worlds without
// spawning OS processes.
func StartLocal(transportName string, procs, ranksPerProc, gen int) ([]*Session, error) {
	srv, err := Serve(ServerConfig{Network: "unix", Procs: procs, Gen: gen, Timeout: defaultJoinTimeout})
	if err != nil {
		return nil, err
	}
	sessions := make([]*Session, procs)
	errs := make([]error, procs)
	var wg sync.WaitGroup
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			sessions[p], errs[p] = Join(JoinConfig{
				Network: "unix", Rendezvous: srv.Addr(),
				Transport: transportName, Proc: p, Ranks: ranksPerProc, Gen: gen,
			})
		}(p)
	}
	wg.Wait()
	srv.Close()
	for _, err := range errs {
		if err != nil {
			for _, s := range sessions {
				if s != nil {
					s.CloseConns()
				}
			}
			return nil, err
		}
	}
	return sessions, nil
}
