// Package proc supervises child processes started by argv. A Group
// keeps each child in a named slot, reaps it, and tells the owner when
// it exits; the owner may answer by starting a replacement into the
// same slot. Stop ends the group: it signals every child and waits for
// them, and it is atomic with Start — a child is either registered
// before Stop takes the lock (and is signalled by it) or is never
// started — so no child can outlive the group unobserved.
//
// `candle launch` (one group per world generation) and `candle fleet`
// (one group of respawning replicas) are the two callers.
package proc

import (
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sync"
)

// ErrStopped is what Start returns once Stop has been called.
var ErrStopped = errors.New("proc: group stopped")

// Group is a set of supervised child processes. Set OnExit before the
// first Start; the zero value is not usable, call New.
type Group struct {
	// OnExit, if set, runs on the child's reaping goroutine when the
	// child in slot exits before Stop; err is what exec.Cmd.Wait
	// returned. It may call Start to put a replacement into the slot.
	// Stop waits for it to return.
	OnExit func(slot string, err error)

	stdout, stderr io.Writer

	mu      sync.Mutex
	stopped bool
	done    chan struct{}
	slots   map[string]*exec.Cmd
	wg      sync.WaitGroup
}

// New returns an empty group whose children write to stdout and
// stderr. Unless they are *os.File, each child gets its own copying
// goroutine, so they must then be safe for concurrent Write.
func New(stdout, stderr io.Writer) *Group {
	return &Group{
		stdout: stdout, stderr: stderr,
		done:  make(chan struct{}),
		slots: make(map[string]*exec.Cmd),
	}
}

// Start runs argv as a child in the named slot (free: never used, or
// its child reaped) and returns its pid. The child inherits this
// process's environment. After Stop it fails with ErrStopped.
func (g *Group) Start(slot string, argv []string) (int, error) {
	// The stopped check, the fork and the registration are one
	// critical section: Stop cannot land between them and miss the
	// child.
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.stopped {
		return 0, ErrStopped
	}
	cmd := exec.Command(argv[0], argv[1:]...)
	cmd.Stdout, cmd.Stderr = g.stdout, g.stderr
	if err := cmd.Start(); err != nil {
		return 0, fmt.Errorf("proc: start %s in slot %q: %w", argv[0], slot, err)
	}
	g.slots[slot] = cmd
	g.wg.Add(1)
	go g.reap(slot, cmd)
	return cmd.Process.Pid, nil
}

func (g *Group) reap(slot string, cmd *exec.Cmd) {
	defer g.wg.Done()
	err := cmd.Wait()
	g.mu.Lock()
	delete(g.slots, slot)
	stopped := g.stopped
	g.mu.Unlock()
	if !stopped && g.OnExit != nil {
		g.OnExit(slot, err)
	}
}

// Signal sends sig to the child in slot, if one is running.
func (g *Group) Signal(slot string, sig os.Signal) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if cmd := g.slots[slot]; cmd != nil {
		_ = cmd.Process.Signal(sig) // already exited: the reaper is about to say so
	}
}

// Done is closed when Stop is called; an OnExit that waits before
// respawning selects on it.
func (g *Group) Done() <-chan struct{} { return g.done }

// Stop ends the group: no further Start succeeds, every running child
// gets sig (syscall.SIGTERM to drain, os.Kill to put down), and Stop
// returns once all children are reaped and every OnExit has returned.
// It may be called more than once.
func (g *Group) Stop(sig os.Signal) {
	g.mu.Lock()
	if !g.stopped {
		g.stopped = true
		close(g.done)
	}
	for _, cmd := range g.slots {
		_ = cmd.Process.Signal(sig)
	}
	g.mu.Unlock()
	g.wg.Wait()
}
