package launch

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// The control plane is one request line and one reply line of JSON
// per connection, then the connection closes. Listener is its one
// server and Call its one client: the rendezvous round and the fleet's
// replica registration are two handlers on the same listener, and
// typed failures cross it as stable codes (ErrCode / CodeErr).

// MaxLine bounds one control-plane line; a join is tiny.
const MaxLine = 1 << 16

// ioTimeout bounds writing a reply, and a client exchange whose
// context carries no deadline.
const ioTimeout = 5 * time.Second

// errorReply is the wire form of a typed failure. Its fields are the
// tail of every message type, so it marshals byte-identically to an
// "error" message of either handler.
type errorReply struct {
	Type string `json:"type"`
	Code string `json:"code,omitempty"`
	Msg  string `json:"msg,omitempty"`
}

// ErrorReply is the "error" reply carrying err's wire code and message.
func ErrorReply(err error) any {
	return errorReply{Type: "error", Code: ErrCode(err), Msg: err.Error()}
}

// Decode parses one control-plane line into M strictly: unknown fields
// and trailing data are errors. No input panics it.
func Decode[M any](line []byte) (M, error) {
	var msg M
	if len(bytes.TrimSpace(line)) == 0 {
		return msg, errors.New("launch: empty control message")
	}
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&msg); err != nil {
		return msg, fmt.Errorf("launch: decoding control message: %w", err)
	}
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return msg, errors.New("launch: trailing data after control message")
	}
	return msg, nil
}

// Listener is the control plane's server. Each accepted connection
// sends one line of at most MaxLine bytes within ReadTimeout; Decode
// parses it and Handle answers it. The listener writes the reply as
// one line and closes the connection. A line that is too long or does
// not decode gets an error reply; a connection that sends nothing is
// closed without one.
type Listener[M any] struct {
	// Decode parses and validates a request line (Decode[M] plus the
	// message set's own checks).
	Decode func(line []byte) (M, error)
	// Handle answers one request with the reply to write. It may block:
	// a rendezvous join waits until its round completes.
	Handle func(M) any
	// ReadTimeout bounds reading the request line. It must be
	// positive: an unbounded read lets one silent client hold a
	// goroutine and a connection forever.
	ReadTimeout time.Duration

	wg sync.WaitGroup
}

// Serve answers connections on ln, each on its own goroutine, until ln
// is closed; it then returns nil.
func (l *Listener[M]) Serve(ln net.Listener) error {
	if l.ReadTimeout <= 0 {
		return errors.New("launch: control listener needs a positive read timeout")
	}
	for {
		c, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		l.wg.Add(1)
		go func() {
			defer l.wg.Done()
			defer c.Close()
			l.answer(c)
		}()
	}
}

// Wait blocks until every accepted connection has been answered.
func (l *Listener[M]) Wait() { l.wg.Wait() }

func (l *Listener[M]) answer(c net.Conn) {
	c.SetReadDeadline(time.Now().Add(l.ReadTimeout))
	line, err := bufio.NewReaderSize(c, MaxLine).ReadSlice('\n')
	if len(line) == 0 {
		return
	}
	var reply any
	if errors.Is(err, bufio.ErrBufferFull) {
		reply = ErrorReply(fmt.Errorf("launch: control line exceeds %d bytes", MaxLine))
	} else if msg, err := l.Decode(line); err != nil {
		reply = ErrorReply(err)
	} else {
		reply = l.Handle(msg)
	}
	c.SetWriteDeadline(time.Now().Add(ioTimeout))
	_ = writeLine(c, reply) // a client that hung up has no one to tell

}

// Call is the control plane's client. It dials network/addr with
// backoff until ctx is done (workers and replicas routinely start
// before their listener is bound), sends req as one line and decodes
// the one reply line into reply. An "error" reply comes back as the
// typed error CodeErr rebuilds.
func Call(ctx context.Context, network, addr string, req, reply any) error {
	c, err := dial(ctx, network, addr)
	if err != nil {
		return err
	}
	defer c.Close()
	deadline, ok := ctx.Deadline()
	if !ok {
		deadline = time.Now().Add(ioTimeout)
	}
	c.SetDeadline(deadline)
	if err := writeLine(c, req); err != nil {
		return fmt.Errorf("launch: control request: %w", err)
	}
	line, err := bufio.NewReaderSize(c, MaxLine).ReadSlice('\n')
	if len(line) == 0 {
		return fmt.Errorf("launch: waiting for control reply: %w", err)
	}
	var head errorReply
	if err := json.Unmarshal(line, &head); err != nil {
		return fmt.Errorf("launch: malformed control reply: %w", err)
	}
	if head.Type == "error" {
		return CodeErr(head.Code, head.Msg)
	}
	return json.Unmarshal(line, reply)
}

// dial connects with doubling backoff until ctx is done.
func dial(ctx context.Context, network, addr string) (net.Conn, error) {
	var d net.Dialer
	backoff := 2 * time.Millisecond
	for {
		c, err := d.DialContext(ctx, network, addr)
		if err == nil {
			return c, nil
		}
		select {
		case <-ctx.Done():
			return nil, fmt.Errorf("launch: dialing %s %s: %w (last: %v)", network, addr, ctx.Err(), err)
		case <-time.After(backoff):
		}
		if backoff < 250*time.Millisecond {
			backoff *= 2
		}
	}
}

func writeLine(c net.Conn, msg any) error {
	b, err := json.Marshal(msg)
	if err != nil {
		return err
	}
	_, err = c.Write(append(b, '\n'))
	return err
}
