package launch

import (
	"errors"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestListenerClosesStalledConns: on a round with no timeout (how
// candle run -serve-rendezvous serves it), a connection that sends
// nothing and one that sends an endless line are both closed by the
// server, and the real workers still get their round.
func TestListenerClosesStalledConns(t *testing.T) {
	defer func(d time.Duration) { lineTimeout = d }(lineTimeout)
	lineTimeout = 200 * time.Millisecond
	srv, err := Serve(ServerConfig{Network: "unix", Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	dial := func() net.Conn {
		c, err := net.Dial("unix", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	silent, endless := dial(), dial()
	go func() {
		// An unterminated string: a reader without a bound keeps
		// buffering it. Stop at 1 MiB, far past MaxLine.
		endless.SetWriteDeadline(time.Now().Add(5 * time.Second))
		chunk := []byte(`{"type":"join","addr":"` + strings.Repeat("x", 4096))
		for n := 0; n < 1<<20; n += len(chunk) {
			if _, err := endless.Write(chunk); err != nil {
				return
			}
			chunk = chunk[len(chunk)-4096:]
		}
	}()

	var wg sync.WaitGroup
	errs := make([]error, 2)
	for p := range errs {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			s, err := Join(JoinConfig{
				Network: "unix", Rendezvous: srv.Addr(),
				Transport: "inproc", Proc: p, Ranks: 1, Timeout: 10 * time.Second,
			})
			if s != nil {
				s.CloseConns()
			}
			errs[p] = err
		}(p)
	}
	wg.Wait()
	for p, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", p, err)
		}
	}
	if err := srv.Wait(); err != nil {
		t.Fatalf("round: %v", err)
	}

	for name, c := range map[string]net.Conn{"silent": silent, "endless": endless} {
		c.SetReadDeadline(time.Now().Add(5 * time.Second))
		_, err := io.Copy(io.Discard, c)
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			t.Fatalf("%s connection still open after 5 s", name)
		}
	}
}

// FuzzDecodeJoin holds the rendezvous join decoder to its contract:
// any byte string yields a validated join or an error, never a panic.
// Run longer with:
//
//	go test -fuzz FuzzDecodeJoin ./internal/launch
func FuzzDecodeJoin(f *testing.F) {
	for _, s := range []string{
		`{"type":"join","proc":0,"ranks":2,"addr":"/tmp/d.sock","transport":"unix"}`,
		// TestBadJoins: a proc outside the round, zero ranks, an
		// unknown transport.
		`{"type":"join","proc":7,"ranks":1,"addr":"inproc-1","transport":"inproc"}`,
		`{"type":"join","addr":"inproc-1","transport":"inproc"}`,
		`{"type":"join","ranks":1,"addr":"x","transport":"no-such-transport"}`,
		``,
		`{"type":"assign","world":4}`,
		`{"type":"join","proc":-1,"ranks":1}`,
		`{"type":"join","ranks":1,"bogus":true}`,
		`{"type":"join","ranks":1}{"type":"join","ranks":1}`,
		`{"type":"join","ranks":1e99}`,
		"\xff\xfe",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := decodeJoin(data) // must not panic
		if err != nil {
			return
		}
		if msg.Type != "join" || msg.Proc < 0 || msg.Ranks <= 0 {
			t.Fatalf("accepted invalid join %+v", msg)
		}
	})
}
