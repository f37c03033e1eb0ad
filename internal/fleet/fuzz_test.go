package fleet

import (
	"bufio"
	"encoding/json"
	"net"
	"net/http"
	"testing"
	"time"
)

func dialControl(t *testing.T, addr string) net.Conn {
	t.Helper()
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	c.SetDeadline(time.Now().Add(5 * time.Second))
	return c
}

func readLine(t *testing.T, c net.Conn) map[string]any {
	t.Helper()
	line, err := bufio.NewReader(c).ReadBytes('\n')
	if err != nil && len(line) == 0 {
		t.Fatalf("reading control reply: %v", err)
	}
	var m map[string]any
	_ = json.Unmarshal(line, &m)
	return m
}

// The router's two decoded input surfaces — replica health replies
// and control-plane registrations — each get the same contract: any
// byte string yields either a validated value or a typed error, and
// neither may panic. (Proxied /predict bodies are forwarded unparsed;
// serve.FuzzDecodePredict covers the decoder that reads them.) Run
// longer with e.g.:
//
//	go test -fuzz FuzzDecodeHealth ./internal/fleet

func FuzzDecodeHealth(f *testing.F) {
	seeds := []string{
		``,
		`{}`,
		`{"status":"ok","epoch":3,"step":300}`,
		`{"status":"ok","epoch":-1,"step":300}`,
		`{"status":"degraded","epoch":3,"step":300,"extra":"tolerated"}`,
		`{"status":""}`,
		`{"status":"ok","epoch":1e99}`,
		`null`,
		`"ok"`,
		"\x00",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := decodeHealth(data) // must not panic
		if err != nil {
			return
		}
		if h.Status == "" || h.Epoch < 0 || h.Step < 0 {
			t.Fatalf("accepted invalid health %+v", h)
		}
	})
}

func FuzzDecodeJoin(f *testing.F) {
	seeds := []string{
		``,
		`{"type":"join","id":"r1","addr":"127.0.0.1:9","epoch":1,"step":100}`,
		`{"type":"join","id":"","addr":"127.0.0.1:9"}`,
		`{"type":"join","id":"r1"}`,
		`{"type":"assign","epoch":1}`,
		`{"type":"join","id":"r1","addr":"a:1","epoch":-1}`,
		`{"type":"join","id":"r1","addr":"a:1","bogus":true}`,
		`{"type":"join"}{"type":"join"}`,
		`join r1`,
		"\xff\xfe",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := decodeJoin(data) // must not panic
		if err != nil {
			return
		}
		if msg.Type != "join" || msg.ID == "" || msg.Addr == "" || msg.Epoch < 0 || msg.Step < 0 {
			t.Fatalf("accepted invalid join %+v", msg)
		}
	})
}

// TestControlRejectsGarbage drives a malformed registration through
// the real TCP control plane: the router answers with a typed wire
// error instead of hanging up or crashing, and stays serviceable.
func TestControlRejectsGarbage(t *testing.T) {
	_, ctlAddr, baseURL := newTestRouter(t, testRouterConfig())
	for _, line := range []string{
		"not json at all\n",
		`{"type":"join"}` + "\n",
		`{"type":"assign","epoch":1}` + "\n",
	} {
		c := dialControl(t, ctlAddr)
		if _, err := c.Write([]byte(line)); err != nil {
			t.Fatal(err)
		}
		reply := readLine(t, c)
		c.Close()
		if code, _ := reply["code"].(string); reply["type"] != "error" || code == "" {
			t.Fatalf("garbage join %q got reply %v, want typed error", line, reply)
		}
	}
	// The router still works afterwards.
	if resp, err := http.Get(baseURL + "/healthz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("router unhealthy after garbage joins: %v", err)
	}
}
