package proc

import (
	"errors"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"sync"
	"syscall"
	"testing"
	"time"
)

// The test binary doubles as the cheap child: `<binary> child-sleep`
// blocks until SIGTERM, `<binary> child-exit3` exits 3 at once.
func TestMain(m *testing.M) {
	if len(os.Args) == 2 {
		switch os.Args[1] {
		case "child-sleep":
			sigc := make(chan os.Signal, 1)
			signal.Notify(sigc, syscall.SIGTERM)
			<-sigc
			os.Exit(0)
		case "child-exit3":
			os.Exit(3)
		}
	}
	os.Exit(m.Run())
}

var sleeper = []string{os.Args[0], "child-sleep"}

func alive(pid int) bool { return syscall.Kill(pid, 0) == nil }

// stopWithin fails the test if Stop does not return inside d — the
// hang the fleet supervisor had.
func stopWithin(t *testing.T, g *Group, sig os.Signal, d time.Duration) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		g.Stop(sig)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(d):
		g.Stop(os.Kill) // put the leak down before failing
		t.Fatalf("Stop did not return within %v", d)
	}
}

func TestExitIsReportedWithItsStatus(t *testing.T) {
	g := New(io.Discard, io.Discard)
	exits := make(chan error, 1)
	g.OnExit = func(slot string, err error) {
		if slot != "a" {
			t.Errorf("exit reported for slot %q, want a", slot)
		}
		exits <- err
	}
	if _, err := g.Start("a", []string{os.Args[0], "child-exit3"}); err != nil {
		t.Fatal(err)
	}
	var xe *exec.ExitError
	if err := <-exits; !errors.As(err, &xe) || xe.ExitCode() != 3 {
		t.Fatalf("exit error %v, want status 3", err)
	}
	stopWithin(t, g, syscall.SIGTERM, 10*time.Second)
	if _, err := g.Start("a", sleeper); !errors.Is(err, ErrStopped) {
		t.Fatalf("Start after Stop returned %v, want ErrStopped", err)
	}
}

func TestRespawnIntoSlot(t *testing.T) {
	g := New(io.Discard, io.Discard)
	respawned := make(chan int, 1)
	g.OnExit = func(slot string, err error) {
		pid, err := g.Start(slot, sleeper)
		if err != nil {
			t.Errorf("respawn into %q: %v", slot, err)
		}
		respawned <- pid
	}
	first, err := g.Start("r0", sleeper)
	if err != nil {
		t.Fatal(err)
	}
	g.Signal("r0", os.Kill)
	second := <-respawned
	if second == first || !alive(second) {
		t.Fatalf("respawn pid %d (first %d) not a fresh live child", second, first)
	}
	stopWithin(t, g, syscall.SIGTERM, 10*time.Second)
	if alive(first) || alive(second) {
		t.Fatal("a child outlived Stop")
	}
}

// TestStopDuringRespawn is the regression for the fleet supervisor's
// SIGTERM-during-respawn hang: a child dies, its reaper starts the
// replacement, and Stop lands while that start is in flight. Whichever
// side wins, Stop must return and leave no child behind. (Registering
// the replacement only after the fork, outside the stopped check — the
// old logic — makes Stop signal the dead child and wait forever on the
// live one.)
func TestStopDuringRespawn(t *testing.T) {
	for i := 0; i < 200; i++ {
		g := New(io.Discard, io.Discard)
		var mu sync.Mutex
		var pids []int
		dying := make(chan struct{})
		g.OnExit = func(slot string, err error) {
			close(dying) // Stop races the Start below
			if pid, err := g.Start(slot, sleeper); err == nil {
				mu.Lock()
				pids = append(pids, pid)
				mu.Unlock()
			} else if !errors.Is(err, ErrStopped) {
				t.Errorf("iteration %d: respawn: %v", i, err)
			}
		}
		pid, err := g.Start("r0", sleeper)
		if err != nil {
			t.Fatal(err)
		}
		pids = append(pids, pid)
		g.Signal("r0", os.Kill)
		<-dying
		stopWithin(t, g, syscall.SIGTERM, 10*time.Second)
		mu.Lock()
		for _, pid := range pids {
			if alive(pid) {
				t.Fatalf("iteration %d: child %d outlived Stop", i, pid)
			}
		}
		mu.Unlock()
	}
}
