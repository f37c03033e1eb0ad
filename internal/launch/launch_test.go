package launch

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"candle/internal/mpi"
)

// TestRendezvousAssignsRanks runs a full round over each data-plane
// transport and checks the assignment and mesh shape.
func TestRendezvousAssignsRanks(t *testing.T) {
	for _, tr := range []string{"inproc", "unix", "tcp"} {
		t.Run(tr, func(t *testing.T) {
			sessions, err := StartLocal(tr, 2, 2, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer func() {
				for _, s := range sessions {
					s.CloseConns()
				}
			}()
			if sessions[0].WorldSize != 4 || sessions[1].WorldSize != 4 {
				t.Fatalf("world sizes: %d, %d", sessions[0].WorldSize, sessions[1].WorldSize)
			}
			if got := sessions[0].Ranks; len(got) != 2 || got[0] != 0 || got[1] != 1 {
				t.Fatalf("proc 0 ranks: %v", got)
			}
			if got := sessions[1].Ranks; len(got) != 2 || got[0] != 2 || got[1] != 3 {
				t.Fatalf("proc 1 ranks: %v", got)
			}
			// Each session holds every boundary-crossing ordered pair:
			// 2 local × 2 remote in each direction = 8.
			for p, s := range sessions {
				if len(s.Conns) != 8 {
					t.Fatalf("proc %d has %d conns, want 8", p, len(s.Conns))
				}
			}
			if _, ok := sessions[0].Conns[mpi.Pair{Src: 0, Dst: 2}]; !ok {
				t.Fatal("proc 0 missing outgoing 0->2 link")
			}
			if _, ok := sessions[0].Conns[mpi.Pair{Src: 3, Dst: 1}]; !ok {
				t.Fatal("proc 0 missing incoming 3->1 link")
			}
		})
	}
}

// TestRendezvousWorldsRunCollectives is the end-to-end check: sessions
// become partial worlds and real allreduces cross the process boundary
// with the same result as a complete world, from fewer elements than
// ranks to 32 KB, three calls each on the same links.
func TestRendezvousWorldsRunCollectives(t *testing.T) {
	for _, tr := range []string{"unix", "tcp"} {
		t.Run(tr, func(t *testing.T) {
			sessions, err := StartLocal(tr, 2, 2, 0)
			if err != nil {
				t.Fatal(err)
			}
			worker := func(c *mpi.Comm) error {
				for _, n := range []int{2, 1 << 8, 1 << 12} {
					for call := 0; call < 3; call++ {
						data := make([]float64, n)
						for i := range data {
							data[i] = float64((c.Rank() + 1) * (i + 1))
						}
						if err := c.AllreduceSum(data); err != nil {
							return err
						}
						for i, v := range data {
							if want := float64(10 * (i + 1)); v != want {
								return fmt.Errorf("rank %d, %d elements, call %d: element %d reduced to %v, want %v",
									c.Rank(), n, call, i, v, want)
							}
						}
					}
				}
				return nil
			}
			var wg sync.WaitGroup
			errs := make([]error, len(sessions))
			for i, s := range sessions {
				w, err := s.NewWorld()
				if err != nil {
					t.Fatal(err)
				}
				wg.Add(1)
				go func(i int, w *mpi.World) {
					defer wg.Done()
					errs[i] = w.Run(worker)
				}(i, w)
			}
			wg.Wait()
			for i, err := range errs {
				if err != nil {
					t.Fatalf("proc %d: %v", i, err)
				}
				sessions[i].Close()
			}
		})
	}
}

// TestDuplicateRegistration: a second join with an already-taken proc
// index gets the typed rejection while the original round completes.
func TestDuplicateRegistration(t *testing.T) {
	srv, err := Serve(ServerConfig{Network: "unix", Procs: 2, Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	join := func(proc int) error {
		s, err := Join(JoinConfig{
			Network: "unix", Rendezvous: srv.Addr(),
			Transport: "inproc", Proc: proc, Ranks: 1, Timeout: 10 * time.Second,
		})
		if s != nil {
			defer s.CloseConns()
		}
		return err
	}

	errs := make(chan error, 3)
	go func() { errs <- join(0) }()
	// Give proc 0 time to register so the duplicate is deterministic.
	time.Sleep(100 * time.Millisecond)
	dupErr := make(chan error, 1)
	go func() { dupErr <- join(0) }()
	select {
	case err := <-dupErr:
		if !errors.Is(err, ErrDuplicateProc) {
			t.Fatalf("duplicate join: %v, want ErrDuplicateProc", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("duplicate join did not get rejected promptly")
	}
	go func() { errs <- join(1) }()
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("legitimate join failed: %v", err)
		}
	}
	if err := srv.Wait(); err != nil {
		t.Fatalf("round failed: %v", err)
	}
}

// TestPartialJoinTimeout: one proc joins, the second never arrives; the
// joined worker and the server both surface the typed timeout.
func TestPartialJoinTimeout(t *testing.T) {
	srv, err := Serve(ServerConfig{Network: "unix", Procs: 2, Timeout: 300 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	_, err = Join(JoinConfig{
		Network: "unix", Rendezvous: srv.Addr(),
		Transport: "inproc", Proc: 0, Ranks: 1, Timeout: 5 * time.Second,
	})
	if !errors.Is(err, ErrRendezvousTimeout) {
		t.Fatalf("join: %v, want ErrRendezvousTimeout", err)
	}
	if err := srv.Wait(); !errors.Is(err, ErrRendezvousTimeout) {
		t.Fatalf("server: %v, want ErrRendezvousTimeout", err)
	}
}

// TestCloseDrainsWaiters: closing the server mid-rendezvous (the
// launcher caught SIGTERM) unblocks every waiting worker with the
// typed closed error instead of leaving them hung.
func TestCloseDrainsWaiters(t *testing.T) {
	srv, err := Serve(ServerConfig{Network: "unix", Procs: 3, Timeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 2)
	for p := 0; p < 2; p++ {
		go func(p int) {
			_, err := Join(JoinConfig{
				Network: "unix", Rendezvous: srv.Addr(),
				Transport: "inproc", Proc: p, Ranks: 1, Timeout: 10 * time.Second,
			})
			errs <- err
		}(p)
	}
	// Let both register, then pull the plug.
	time.Sleep(150 * time.Millisecond)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		select {
		case err := <-errs:
			if !errors.Is(err, ErrRendezvousClosed) {
				t.Fatalf("drained worker: %v, want ErrRendezvousClosed", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("worker still hung after server close")
		}
	}
	if err := srv.Wait(); !errors.Is(err, ErrRendezvousClosed) {
		t.Fatalf("server outcome: %v, want ErrRendezvousClosed", err)
	}
}

// TestBadJoins covers control-plane rejection of nonsense registrations.
func TestBadJoins(t *testing.T) {
	srv, err := Serve(ServerConfig{Network: "unix", Procs: 1, Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if _, err := Join(JoinConfig{
		Network: "unix", Rendezvous: srv.Addr(),
		Transport: "inproc", Proc: 7, Ranks: 1, Timeout: 2 * time.Second,
	}); err == nil {
		t.Fatal("out-of-range proc index accepted")
	}
	if _, err := Join(JoinConfig{
		Network: "unix", Rendezvous: srv.Addr(),
		Transport: "inproc", Proc: 0, Ranks: 0, Timeout: 2 * time.Second,
	}); err == nil {
		t.Fatal("zero-rank registration accepted")
	}
	if _, err := Join(JoinConfig{
		Network: "unix", Rendezvous: srv.Addr(),
		Transport: "no-such-transport", Proc: 0, Ranks: 1, Timeout: 2 * time.Second,
	}); err == nil {
		t.Fatal("unknown transport accepted")
	}
}

// TestGenerationMismatch: a worker expecting a different generation
// than the server's assignment refuses to proceed.
func TestGenerationMismatch(t *testing.T) {
	srv, err := Serve(ServerConfig{Network: "unix", Procs: 1, Gen: 2, Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if _, err := Join(JoinConfig{
		Network: "unix", Rendezvous: srv.Addr(),
		Transport: "inproc", Proc: 0, Ranks: 1, Gen: 1, Timeout: 2 * time.Second,
	}); err == nil {
		t.Fatal("generation mismatch accepted")
	}
}
