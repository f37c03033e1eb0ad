package main

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"os/exec"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"candle/internal/proc"
)

// actAsCLI is the one test-only hook: with it set, the test binary is
// the candle CLI. TestMain sets it for the test process, so every child
// the tests (or `launch` and `fleet`, through os.Executable) spawn runs
// dispatch on its argv — the same path the shipped binary takes.
const actAsCLI = "CANDLE_TEST_ACT_AS_CLI"

func TestMain(m *testing.M) {
	if os.Getenv(actAsCLI) != "" {
		os.Exit(dispatch(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Setenv(actAsCLI, "1")
	os.Exit(m.Run())
}

// candleCLI runs `candle args...` in this process, through the real
// dispatch/flag path, and returns its exit status and output.
func candleCLI(args ...string) (code int, stdout, stderr string) {
	var out, errOut syncBuffer // launch hands them to several children at once
	code = dispatch(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// mustCandle is candleCLI for invocations that have to succeed.
func mustCandle(t *testing.T, args ...string) string {
	t.Helper()
	code, stdout, stderr := candleCLI(args...)
	if code != 0 {
		t.Fatalf("candle %s: exit %d\nstdout:\n%s\nstderr:\n%s", strings.Join(args, " "), code, stdout, stderr)
	}
	return stdout
}

// syncBuffer is a bytes.Buffer that children's output pumps can write
// concurrently, and while the test reads.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// cliChild is `candle args...` as a real child process: the tests that
// need a signal delivered or an exit status observed use it.
type cliChild struct {
	g              *proc.Group
	stdout, stderr syncBuffer
	exited         chan error
}

func startCandle(t *testing.T, args ...string) *cliChild {
	t.Helper()
	c := &cliChild{exited: make(chan error, 1)}
	c.g = proc.New(&c.stdout, &c.stderr)
	c.g.OnExit = func(_ string, err error) { c.exited <- err }
	if _, err := c.g.Start("cli", append([]string{os.Args[0]}, args...)); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.g.Stop(os.Kill) })
	return c
}

// waitLog blocks until the child's stderr matches re and returns the
// submatches; it fails the test if the child exits or d passes first.
func (c *cliChild) waitLog(t *testing.T, re string, d time.Duration) []string {
	t.Helper()
	rx := regexp.MustCompile(re)
	deadline := time.Now().Add(d)
	for {
		if m := rx.FindStringSubmatch(c.stderr.String()); m != nil {
			return m
		}
		select {
		case err := <-c.exited:
			t.Fatalf("child exited (%v) before logging %q\nstderr:\n%s", err, re, c.stderr.String())
		case <-time.After(20 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %q\nstderr:\n%s", re, c.stderr.String())
		}
	}
}

// waitExit returns the child's exit status, failing the test if it is
// still running after d.
func (c *cliChild) waitExit(t *testing.T, d time.Duration) int {
	t.Helper()
	select {
	case err := <-c.exited:
		var xe *exec.ExitError
		switch {
		case err == nil:
			return 0
		case errors.As(err, &xe):
			return xe.ExitCode()
		default:
			t.Fatalf("child wait: %v", err)
		}
	case <-time.After(d):
		t.Fatalf("child still running after %v\nstderr:\n%s", d, c.stderr.String())
	}
	return -1
}

// TestDispatchTable pins the CLI's shape: every subcommand answers -h
// with its flags and exit 0, an unknown one exits 2 naming the valid
// ones, and README's subcommand table lists exactly the dispatch
// table's entries, naming in its flag column only flags each
// subcommand registers.
func TestDispatchTable(t *testing.T) {
	for _, c := range commands {
		code, _, stderr := candleCLI(c.name, "-h")
		if code != 0 {
			t.Errorf("candle %s -h: exit %d, want 0", c.name, code)
		}
		if !strings.Contains(stderr, "Usage of candle "+c.name) {
			t.Errorf("candle %s -h does not print its usage:\n%s", c.name, stderr)
		}
		if c.name != "tables" && !strings.Contains(stderr, "\n  -") {
			t.Errorf("candle %s -h lists no flags:\n%s", c.name, stderr)
		}
		if code, _, _ := candleCLI(c.name, "-no-such-flag"); code != 2 {
			t.Errorf("candle %s -no-such-flag: exit %d, want 2", c.name, code)
		}
	}

	code, _, stderr := candleCLI("frobnicate")
	if code != 2 {
		t.Errorf("unknown subcommand: exit %d, want 2", code)
	}
	for _, c := range commands {
		if !strings.Contains(stderr, "\n  "+c.name+" ") {
			t.Errorf("unknown-subcommand message does not list %q:\n%s", c.name, stderr)
		}
	}
	if code, _, _ := candleCLI(); code != 2 {
		t.Errorf("no subcommand: exit %d, want 2", code)
	}

	// Workers read, hosts write: a worker joining someone else's round
	// without the shared dataset's directory is a usage error.
	code, _, stderr = candleCLI("run", "-mode", "real", "-transport", "unix",
		"-rendezvous", "/nonexistent/rdv.sock", "-ranks", "2", "-local-ranks", "1", "-proc-index", "1")
	if code != 2 || !strings.Contains(stderr, "-data-dir") {
		t.Errorf("joining worker without -data-dir: exit %d, stderr %q; want 2 naming -data-dir", code, stderr)
	}

	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	var documented []string
	for _, m := range regexp.MustCompile("(?m)^\\| `candle ([a-z]+)` \\|").FindAllStringSubmatch(string(readme), -1) {
		documented = append(documented, m[1])
	}
	var table []string
	for _, c := range commands {
		table = append(table, c.name)
	}
	if strings.Join(documented, " ") != strings.Join(table, " ") {
		t.Errorf("README subcommand table lists\n  %v\nthe dispatch table has\n  %v", documented, table)
	}

	flagToken := regexp.MustCompile("(?:^|[\\s`\\[])-([a-z][a-z0-9-]*)")
	for _, c := range commands {
		row := regexp.MustCompile("(?m)^\\| `candle " + c.name + "` \\|.*$").FindString(string(readme))
		cols := strings.Split(strings.ReplaceAll(row, `\|`, "/"), "|")
		if len(cols) < 5 {
			continue // missing from the table: reported above
		}
		fs := flag.NewFlagSet(c.name, flag.ContinueOnError)
		c.setup(fs)
		for _, m := range flagToken.FindAllStringSubmatch(cols[3], -1) {
			if fs.Lookup(m[1]) == nil {
				t.Errorf("README lists -%s for candle %s, which does not register it", m[1], c.name)
			}
		}
	}
}
