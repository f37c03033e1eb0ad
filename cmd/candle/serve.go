package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"time"

	"candle/internal/fleet"
	"candle/internal/nn"
	"candle/internal/serve"
)

// serveOpts is what `serve` takes beyond the serving-engine group.
type serveOpts struct {
	serveFlags
	bootstrapFlags
	Addr            string
	Replicas        int
	ReloadEvery     time.Duration
	Register        string
	RegisterNetwork string
	ReplicaID       string
}

// serveCmd answers /predict over HTTP for a trained CANDLE benchmark:
// it loads the newest valid checkpoint from -dir, coalesces concurrent
// requests into micro-batches (the serving analogue of Horovod's fusion
// buffer), and hot-reloads newer checkpoints as a training run writes
// them. SIGINT/SIGTERM drains gracefully: admitted requests are
// answered, new ones get 503. With -register it joins a `candle fleet`
// router as one replica (this is what fleet spawns).
//
//	candle serve -bench NT3 -dir ./ckpt -addr :8080
//	candle serve -bench NT3 -dir ./ckpt -bootstrap -sample-div 20 -feature-div 1200
//	candle serve -bench NT3 -dir ./ckpt -max-batch 1   # unbatched baseline
func serveCmd(fs *flag.FlagSet) func(stdout, stderr io.Writer) error {
	o := serveOpts{serveFlags: newServeFlags()}
	o.serveFlags.register(fs)
	o.bootstrapFlags.register(fs)
	fs.StringVar(&o.Addr, "addr", ":8080", "HTTP listen address")
	fs.IntVar(&o.Replicas, "replicas", 2, "model replicas serving batches concurrently")
	fs.DurationVar(&o.ReloadEvery, "reload-every", 2*time.Second, "checkpoint poll cadence (negative disables hot reload)")
	fs.StringVar(&o.Register, "register", "", "candle fleet control-plane address to register with (joins this server to a fleet)")
	fs.StringVar(&o.RegisterNetwork, "register-network", "tcp", "network for -register (tcp or unix)")
	fs.StringVar(&o.ReplicaID, "replica-id", "", "replica identity for -register (required with -register)")
	return func(stdout, stderr io.Writer) error { return o.run() }
}

// run builds the server, listens on -addr, registers with the fleet if
// asked, and serves until SIGINT/SIGTERM, then drains.
func (o *serveOpts) run() error {
	if err := o.check(); err != nil {
		return err
	}
	if o.Dir == "" {
		return fmt.Errorf("-dir is required")
	}
	if o.Register != "" && o.ReplicaID == "" {
		return fmt.Errorf("-register requires -replica-id")
	}
	if o.ReplicaID != "" {
		log.SetPrefix("[" + o.ReplicaID + "] ")
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
	s, err := serve.New(serve.Config{
		Benchmark:   b.Spec.Name,
		Dir:         o.Dir,
		Factory:     func() *nn.Sequential { return b.Build(b.Spec) },
		Loss:        b.Loss,
		InputDim:    b.Spec.Features,
		DType:       o.DType,
		MaxBatch:    o.MaxBatch,
		MaxWait:     o.maxWait(),
		Replicas:    o.Replicas,
		QueueDepth:  o.Queue,
		ReloadEvery: o.ReloadEvery,
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", o.Addr)
	if err != nil {
		return err
	}
	sigc, stopSig := notifyTerminate()
	defer stopSig()
	epoch, step := s.Generation()
	log.Printf("serving %s (features=%d) from %s epoch %d step %d on %s (max-batch %d, replicas %d)",
		b.Spec.Name, b.Spec.Features, o.Dir, epoch, step, ln.Addr(), o.MaxBatch, o.Replicas)
	if o.Register != "" {
		// Join a candle fleet router; it probes /healthz and routes to
		// us once the registration lands.
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		assign, err := fleet.Register(ctx, o.RegisterNetwork, o.Register, o.ReplicaID, ln.Addr().String(), epoch, step)
		cancel()
		if err != nil {
			ln.Close()
			return fmt.Errorf("registering with fleet at %s: %w", o.Register, err)
		}
		log.Printf("registered with fleet at %s as %q (fleet at epoch %d)", o.Register, o.ReplicaID, assign.Epoch)
	}
	errc := make(chan error, 1)
	go func() { errc <- s.Serve(ln) }()
	return serveUntilSignal(sigc, errc, s.Shutdown)
}
