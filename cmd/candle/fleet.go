package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"syscall"
	"time"

	"candle/internal/checkpoint"
	"candle/internal/fleet"
	"candle/internal/proc"
)

// fleetOpts is what `fleet` takes beyond the serving-engine group it
// forwards to its replicas.
type fleetOpts struct {
	serveFlags
	bootstrapFlags
	Addr, CtlAddr            string
	Replicas                 int
	ReloadEvery, HealthEvery time.Duration
	Respawn                  bool

	replicaArgs func() []string // the serving group, forwarded verbatim
}

// fleetCmd runs a replicated serving fleet on one command line: it
// spawns N `candle serve` replica processes, fronts them with the
// internal/fleet router, and keeps the fleet coherent — health probes
// drain dead replicas around live traffic, a respawned replica
// re-registers into its old slot, and checkpoint hot-reloads commit
// fleet-wide in one atomic generation bump (no client ever sees the
// fleet half-upgraded).
//
// Clients talk to the router exactly as they would to one
// `candle serve`: POST /predict, GET /healthz, GET /metrics.
//
//	candle fleet -bench NT3 -dir ./ckpt -replicas 3 -addr :8080
//	candle fleet -bench NT3 -dir ./ckpt -replicas 2 -bootstrap
func fleetCmd(fs *flag.FlagSet) func(stdout, stderr io.Writer) error {
	o := fleetOpts{serveFlags: newServeFlags()}
	o.serveFlags.register(fs)
	o.replicaArgs = forwarder(fs)
	o.bootstrapFlags.register(fs)
	fs.StringVar(&o.Addr, "addr", ":8080", "router HTTP listen address (clients connect here)")
	fs.StringVar(&o.CtlAddr, "ctl-addr", "127.0.0.1:0", "control-plane listen address replicas register on")
	fs.IntVar(&o.Replicas, "replicas", 2, "replica processes to spawn")
	fs.DurationVar(&o.ReloadEvery, "reload-every", 2*time.Second, "coordinated checkpoint reload cadence (negative: only via POST /fleet/reload)")
	fs.DurationVar(&o.HealthEvery, "health-every", 200*time.Millisecond, "per-replica health probe cadence")
	fs.BoolVar(&o.Respawn, "respawn", true, "restart a replica process that dies; it re-registers into its old slot")
	return func(stdout, stderr io.Writer) error { return o.run() }
}

// run is the router: bootstrap if asked, start the router's control and
// HTTP listeners, spawn and supervise the replica processes, and drain
// everything on SIGINT/SIGTERM.
func (o *fleetOpts) run() error {
	if err := o.check(); err != nil {
		return err
	}
	if o.Dir == "" {
		return fmt.Errorf("-dir is required")
	}
	if o.Replicas < 1 {
		return fmt.Errorf("-replicas must be >= 1, got %d", o.Replicas)
	}
	b, err := o.benchmark()
	if err != nil {
		return err
	}
	if o.Bootstrap {
		if err := bootstrap(b, o.Dir, o.DType, o.BootstrapEpochs); err != nil {
			return fmt.Errorf("bootstrap: %w", err)
		}
	}
	if _, err := checkpoint.Latest(o.Dir, b.Spec.Name); err != nil {
		return fmt.Errorf("no servable checkpoint in %s (train first, or pass -bootstrap): %w", o.Dir, err)
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}

	r := fleet.NewRouter(fleet.Config{
		HealthEvery: o.HealthEvery,
		ReloadEvery: o.ReloadEvery,
	})
	ctlLn, err := net.Listen("tcp", o.CtlAddr)
	if err != nil {
		return fmt.Errorf("control listener: %w", err)
	}
	httpLn, err := net.Listen("tcp", o.Addr)
	if err != nil {
		ctlLn.Close()
		return fmt.Errorf("http listener: %w", err)
	}
	sigc, stopSig := notifyTerminate()
	defer stopSig()
	go func() { _ = r.ServeControl(ctlLn) }()
	errc := make(chan error, 1)
	go func() { errc <- r.Serve(httpLn) }()
	log.Printf("router up: clients %s, replica control plane %s", httpLn.Addr(), ctlLn.Addr())

	// Each replica is `candle serve` registered under its slot's ID:
	// one model replica per process (the fleet is the pool), its own
	// reload poller off (the router coordinates reloads fleet-wide), on
	// a port of its own choosing that registration tells the router.
	g := proc.New(os.Stdout, os.Stderr)
	spawn := func(id string) error {
		argv := append([]string{exe, "serve"}, o.replicaArgs()...)
		argv = append(argv, "-register="+ctlLn.Addr().String(), "-replica-id="+id,
			"-replicas=1", "-reload-every=-1s", "-addr=127.0.0.1:0")
		pid, err := g.Start(id, argv)
		if err == nil {
			log.Printf("replica %s: pid %d", id, pid)
		}
		return err
	}
	g.OnExit = func(id string, err error) {
		log.Printf("replica %s exited: %v", id, err)
		if !o.Respawn {
			return
		}
		select {
		case <-g.Done():
			return
		case <-time.After(500 * time.Millisecond): // a replica dying at start-up must not spin
		}
		log.Printf("replica %s: respawning", id)
		if err := spawn(id); err != nil && !errors.Is(err, proc.ErrStopped) {
			log.Printf("replica %s: respawn failed: %v", id, err)
		}
	}
	// SIGTERM is a graceful drain: each replica finishes its admitted
	// requests. Covers every return below; a no-op once stopped.
	defer g.Stop(syscall.SIGTERM)
	for i := 0; i < o.Replicas; i++ {
		if err := spawn(fmt.Sprintf("r%d", i)); err != nil {
			return err
		}
	}
	return serveUntilSignal(sigc, errc, func(ctx context.Context) error {
		g.Stop(syscall.SIGTERM)
		return r.Shutdown(ctx)
	})
}
