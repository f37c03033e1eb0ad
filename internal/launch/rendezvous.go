// Package launch coordinates multi-process training: a rendezvous
// server that worker processes register with, rank assignment, and the
// full-mesh data-plane handshake that turns a set of processes into
// one mpi world (via mpi.NewPartialWorld).
//
// The control plane (control.go) is deliberately simple — one JSON
// line each way over a Unix or TCP socket; a rendezvous round reads:
//
//	worker → server  {"type":"join","proc":0,"ranks":2,"addr":"...","transport":"unix"}
//	server → worker  {"type":"assign","world":4,"rank_lo":0,"rank_hi":2,"gen":0,"peers":[...]}
//	server → worker  {"type":"error","code":"duplicate","msg":"..."}
//
// Once assigned, workers open the data plane themselves: one
// internal/transport connection per ordered rank pair that crosses a
// process boundary, identified by a hello frame (src, dst, generation),
// dialed by the source side. The rendezvous server is not involved in
// data transfer and can exit once every round is assigned.
package launch

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Typed rendezvous failures, mapped across the wire via error codes.
var (
	// ErrDuplicateProc reports a second join with an already-registered
	// proc index.
	ErrDuplicateProc = errors.New("launch: duplicate proc registration")
	// ErrRendezvousTimeout reports a round that never completed: some
	// procs joined, the rest never arrived.
	ErrRendezvousTimeout = errors.New("launch: rendezvous timed out waiting for procs")
	// ErrRendezvousClosed reports a server shut down (e.g. the launcher
	// caught SIGTERM) while workers were still waiting.
	ErrRendezvousClosed = errors.New("launch: rendezvous closed")
)

// ErrCode maps a typed failure to its stable wire code ("duplicate",
// "timeout", "closed", or the catch-all "error"). It is exported —
// with its inverse CodeErr — for the other handlers on the control
// plane (the fleet's replica registration), whose typed errors cross
// the wire the same way.
func ErrCode(err error) string {
	switch {
	case errors.Is(err, ErrDuplicateProc):
		return "duplicate"
	case errors.Is(err, ErrRendezvousTimeout):
		return "timeout"
	case errors.Is(err, ErrRendezvousClosed):
		return "closed"
	}
	return "error"
}

// CodeErr is ErrCode's inverse: it rebuilds the typed error (wrapped
// around the wire detail) from a code received off the wire.
func CodeErr(code, msg string) error {
	var base error
	switch code {
	case "duplicate":
		base = ErrDuplicateProc
	case "timeout":
		base = ErrRendezvousTimeout
	case "closed":
		base = ErrRendezvousClosed
	default:
		return fmt.Errorf("launch: rendezvous error: %s", msg)
	}
	return fmt.Errorf("%w: %s", base, msg)
}

// wireMsg is every control-plane message; Type selects the fields.
type wireMsg struct {
	Type      string     `json:"type"`
	Proc      int        `json:"proc,omitempty"`
	Ranks     int        `json:"ranks,omitempty"`
	Addr      string     `json:"addr,omitempty"`
	Transport string     `json:"transport,omitempty"`
	World     int        `json:"world,omitempty"`
	RankLo    int        `json:"rank_lo,omitempty"`
	RankHi    int        `json:"rank_hi,omitempty"`
	Gen       int        `json:"gen,omitempty"`
	Peers     []peerInfo `json:"peers,omitempty"`
	Code      string     `json:"code,omitempty"`
	Msg       string     `json:"msg,omitempty"`
}

// peerInfo describes one assigned process to the others.
type peerInfo struct {
	Proc   int    `json:"proc"`
	RankLo int    `json:"rank_lo"`
	RankHi int    `json:"rank_hi"`
	Addr   string `json:"addr"`
}

// lineTimeout bounds a join's request line when the round itself is
// unbounded.
var lineTimeout = 10 * time.Second

// ServerConfig configures a rendezvous round.
type ServerConfig struct {
	// Network is the control-plane socket family: "unix" or "tcp".
	Network string
	// Addr is the listen address; empty mints one (a temp-dir socket
	// path for unix, a loopback ephemeral port for tcp).
	Addr string
	// Procs is the number of worker processes the round waits for.
	Procs int
	// Gen is the world generation, stamped into assignments so stale
	// workers from a previous elastic generation are rejected by peers.
	Gen int
	// Timeout bounds the whole round, and each join's request line;
	// 0 leaves the round unbounded and bounds the line at 10 s.
	Timeout time.Duration
}

// Server runs one rendezvous round: it collects Procs joins, assigns
// contiguous rank ranges in proc-index order, and replies to every
// worker with the full peer map. The round is a handler on the
// control-plane Listener: each join blocks until the round completes.
type Server struct {
	cfg     ServerConfig
	ln      net.Listener
	cleanup string

	joins     chan joinReq
	closeOnce sync.Once
	closed    chan struct{}
	done      chan struct{}
	err       error
}

// joinReq is one worker's join waiting for the round's answer.
type joinReq struct {
	msg   wireMsg
	reply chan any
}

// decodeJoin parses one rendezvous request line: strictly, and only a
// join for a non-negative proc hosting at least one rank. Whether the
// proc index fits the round is the round's to say.
func decodeJoin(line []byte) (wireMsg, error) {
	msg, err := Decode[wireMsg](line)
	if err != nil {
		return msg, err
	}
	switch {
	case msg.Type != "join":
		return msg, fmt.Errorf("launch: unexpected control message type %q", msg.Type)
	case msg.Proc < 0:
		return msg, fmt.Errorf("launch: negative proc index %d", msg.Proc)
	case msg.Ranks <= 0:
		return msg, fmt.Errorf("launch: proc %d declared %d ranks", msg.Proc, msg.Ranks)
	}
	return msg, nil
}

// Serve binds the control socket and starts the round.
func Serve(cfg ServerConfig) (*Server, error) {
	if cfg.Procs <= 0 {
		return nil, fmt.Errorf("launch: rendezvous needs a positive proc count, got %d", cfg.Procs)
	}
	if cfg.Network == "" {
		cfg.Network = "unix"
	}
	addr, cleanup := cfg.Addr, ""
	if addr == "" {
		if cfg.Network == "tcp" {
			addr = "127.0.0.1:0"
		} else {
			dir, err := os.MkdirTemp("", "candle-rdv-")
			if err != nil {
				return nil, fmt.Errorf("launch: rendezvous socket dir: %w", err)
			}
			addr = filepath.Join(dir, "rdv.sock")
			cleanup = dir
		}
	}
	ln, err := net.Listen(cfg.Network, addr)
	if err != nil {
		if cleanup != "" {
			os.RemoveAll(cleanup)
		}
		return nil, fmt.Errorf("launch: rendezvous listen %s %q: %w", cfg.Network, addr, err)
	}
	s := &Server{
		cfg:     cfg,
		ln:      ln,
		cleanup: cleanup,
		joins:   make(chan joinReq),
		closed:  make(chan struct{}),
		done:    make(chan struct{}),
	}
	ctl := &Listener[wireMsg]{Decode: decodeJoin, Handle: s.join, ReadTimeout: cfg.Timeout}
	if ctl.ReadTimeout <= 0 {
		ctl.ReadTimeout = lineTimeout
	}
	go ctl.Serve(ln)
	go s.coordinate()
	return s, nil
}

// Addr returns the control-plane address workers join.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// join hands one worker's join to the round and waits for its answer.
func (s *Server) join(msg wireMsg) any {
	req := joinReq{msg: msg, reply: make(chan any, 1)}
	select {
	case s.joins <- req:
		return <-req.reply
	case <-s.closed:
		return errorReply{Type: "error", Code: ErrCode(ErrRendezvousClosed), Msg: "rendezvous closed"}
	case <-s.done:
		return errorReply{Type: "error", Code: "error", Msg: "rendezvous round already completed"}
	}
}

// coordinate collects joins until the round is complete, times out, or
// the server closes, then answers every joined worker.
func (s *Server) coordinate() {
	defer close(s.done)
	defer func() {
		s.ln.Close()
		if s.cleanup != "" {
			os.RemoveAll(s.cleanup)
		}
	}()
	var timeout <-chan time.Time
	if s.cfg.Timeout > 0 {
		tm := time.NewTimer(s.cfg.Timeout)
		defer tm.Stop()
		timeout = tm.C
	}
	joined := make(map[int]joinReq)
	fail := func(err error, detail string) {
		s.err = err
		for _, j := range joined {
			j.reply <- errorReply{Type: "error", Code: ErrCode(err), Msg: detail}
		}
	}
	for len(joined) < s.cfg.Procs {
		select {
		case j := <-s.joins:
			if j.msg.Proc >= s.cfg.Procs {
				j.reply <- errorReply{Type: "error", Code: "error",
					Msg: fmt.Sprintf("proc index %d outside [0,%d)", j.msg.Proc, s.cfg.Procs)}
				continue
			}
			if _, dup := joined[j.msg.Proc]; dup {
				// The round keeps the first registration; the imposter
				// gets the typed rejection.
				j.reply <- errorReply{Type: "error", Code: ErrCode(ErrDuplicateProc),
					Msg: fmt.Sprintf("proc %d already registered", j.msg.Proc)}
				continue
			}
			joined[j.msg.Proc] = j
		case <-timeout:
			fail(ErrRendezvousTimeout, fmt.Sprintf("%d of %d procs joined within %v", len(joined), s.cfg.Procs, s.cfg.Timeout))
			return
		case <-s.closed:
			fail(ErrRendezvousClosed, "launcher shut down mid-rendezvous")
			return
		}
	}

	// Assign contiguous rank ranges in proc-index order.
	procs := make([]int, 0, len(joined))
	for p := range joined {
		procs = append(procs, p)
	}
	sort.Ints(procs)
	peers := make([]peerInfo, len(procs))
	lo := 0
	for i, p := range procs {
		j := joined[p]
		peers[i] = peerInfo{Proc: p, RankLo: lo, RankHi: lo + j.msg.Ranks, Addr: j.msg.Addr}
		lo += j.msg.Ranks
	}
	for i, p := range procs {
		joined[p].reply <- wireMsg{
			Type: "assign", World: lo, Gen: s.cfg.Gen,
			RankLo: peers[i].RankLo, RankHi: peers[i].RankHi,
			Peers: peers,
		}
	}
}

// Wait blocks until the round completes (nil) or fails (the typed
// error the workers were also given).
func (s *Server) Wait() error {
	<-s.done
	return s.err
}

// Close shuts the round down. Workers still waiting are drained with
// ErrRendezvousClosed; a round that already completed is unaffected.
func (s *Server) Close() error {
	s.closeOnce.Do(func() { close(s.closed) })
	<-s.done
	return nil
}
