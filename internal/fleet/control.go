package fleet

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"

	"candle/internal/launch"
)

// The fleet control plane: replicas register with the router through
// internal/launch's control-plane listener and client, the same ones
// the rendezvous round runs on — one request line, one reply line,
// typed errors as stable wire codes (launch.ErrCode / launch.CodeErr).
// Registration is a oneshot: the connection closes after the assign
// and liveness is the health prober's job, not the socket's.

// ErrDuplicateReplica is launch's duplicate-registration error under
// its fleet name: a join with the id of a live member. Sharing the
// value keeps the wire code ("duplicate") and errors.Is behavior
// identical across both control planes.
var ErrDuplicateReplica = launch.ErrDuplicateProc

// controlMsg is every control-plane message; Type selects the fields.
type controlMsg struct {
	Type string `json:"type"` // "join", "assign", "error"
	// join fields
	ID   string `json:"id,omitempty"`
	Addr string `json:"addr,omitempty"`
	Pid  int    `json:"pid,omitempty"`
	// generation stamp: the replica's serving generation in a join,
	// the fleet's in an assign.
	Epoch int `json:"epoch,omitempty"`
	Step  int `json:"step,omitempty"`
	// error fields
	Code string `json:"code,omitempty"`
	Msg  string `json:"msg,omitempty"`
}

// decodeJoin parses one registration line. It is strict (unknown
// fields and trailing garbage rejected) and total: no input panics
// it — the fuzz test holds it to that.
func decodeJoin(line []byte) (controlMsg, error) {
	msg, err := launch.Decode[controlMsg](line)
	if err != nil {
		return msg, err
	}
	if msg.Type != "join" {
		return msg, fmt.Errorf("fleet: unexpected control message type %q", msg.Type)
	}
	if msg.ID == "" || msg.Addr == "" {
		return msg, errors.New("fleet: join needs id and addr")
	}
	if msg.Epoch < 0 || msg.Step < 0 {
		return msg, errors.New("fleet: join generation must be non-negative")
	}
	return msg, nil
}

// ServeControl answers registrations on ln until Shutdown: the
// registration handler on launch's control-plane listener.
func (r *Router) ServeControl(ln net.Listener) error {
	r.ctlMu.Lock()
	r.ctlLn = ln
	r.ctlMu.Unlock()
	return r.ctl.Serve(ln)
}

// answerJoin registers one replica and replies with the fleet
// generation it must serve.
func (r *Router) answerJoin(msg controlMsg) any {
	// A join from a replica the router cannot name its peer address
	// for still carries an explicit addr; trust it (the health prober
	// will find out fast if it lies).
	m, err := r.register(msg.ID, msg.Addr, msg.Pid, msg.Epoch, msg.Step)
	if err != nil {
		return launch.ErrorReply(err)
	}
	epoch, step := unpackGen(r.fleetGen.Load())
	r.metrics.joins.Add(1)
	return controlMsg{Type: "assign", ID: m.id, Epoch: epoch, Step: step}
}

// Assign is the router's registration reply: the fleet generation the
// replica must be serving to receive traffic.
type Assign struct {
	Epoch int
	Step  int
}

// Register is the replica-side client: it dials the router's control
// address (with retry until ctx expires — the router may still be
// coming up, exactly like launch workers racing the rendezvous),
// announces this replica, and returns the fleet generation.
func Register(ctx context.Context, network, ctlAddr, id, serveAddr string, epoch, step int) (*Assign, error) {
	join := controlMsg{Type: "join", ID: id, Addr: serveAddr, Pid: os.Getpid(), Epoch: epoch, Step: step}
	var reply controlMsg
	if err := launch.Call(ctx, network, ctlAddr, join, &reply); err != nil {
		return nil, fmt.Errorf("fleet: registering %s: %w", id, err)
	}
	if reply.Type != "assign" {
		return nil, fmt.Errorf("fleet: registering %s: unexpected %q reply", id, reply.Type)
	}
	return &Assign{Epoch: reply.Epoch, Step: reply.Step}, nil
}
