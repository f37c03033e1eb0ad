// Serving: train the NT3 benchmark briefly, then serve it for
// inference with the batched serving stack — micro-batching
// (the fusion-buffer idea applied to requests), a replica pool, and
// hot checkpoint reload picking up a newer training snapshot while
// requests are in flight.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"sync"
	"time"

	"candle/internal/candle"
	"candle/internal/nn"
	"candle/internal/serve"
)

func main() {
	// 1. Train a scaled NT3 for a few epochs, checkpointing every
	// epoch — the serving side only ever reads checkpoint files, the
	// same ones a real training run leaves behind.
	bench, err := candle.Scaled("NT3", 20, 1200)
	if err != nil {
		log.Fatal(err)
	}
	dataDir, err := os.MkdirTemp("", "candle-serving-data-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dataDir)
	ckptDir, err := os.MkdirTemp("", "candle-serving-ckpt-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(ckptDir)
	if _, _, err := bench.PrepareData(dataDir, 7); err != nil {
		log.Fatal(err)
	}
	train := func(epochs int) {
		_, err := bench.Run(candle.RunConfig{
			Ranks: 1, TotalEpochs: epochs, Batch: 7, LR: 0.05,
			Engine: "chunked", DataDir: dataDir, Seed: 7,
			CheckpointDir: ckptDir, CheckpointEvery: 1, Resume: true,
		})
		if err != nil {
			log.Fatal(err)
		}
	}
	train(2)
	fmt.Printf("trained %s for 2 epochs, checkpoints in %s\n", bench.Spec.Name, ckptDir)

	// 2. Start the server on those checkpoints: up to 16 requests
	// coalesce into one Forward, waiting at most 2ms for stragglers;
	// two replicas (private layer buffers each) run batches
	// concurrently; the reload loop polls for newer checkpoints.
	s, err := serve.New(serve.Config{
		Benchmark:   bench.Spec.Name,
		Dir:         ckptDir,
		Factory:     func() *nn.Sequential { return bench.Build(bench.Spec) },
		Loss:        bench.Loss,
		InputDim:    bench.Spec.Features,
		MaxBatch:    16,
		MaxWait:     2 * time.Millisecond,
		Replicas:    2,
		ReloadEvery: 50 * time.Millisecond,
	})
	if err != nil {
		log.Fatal(err)
	}
	epoch, step := s.Generation()
	fmt.Printf("serving generation: epoch %d step %d\n", epoch, step)

	// 3. Fire 32 concurrent clients, 50 predictions each, through the
	// in-process engine (the HTTP layer is a thin codec over the same
	// call — see `candle serve`).
	row := make([]float64, bench.Spec.Features)
	var wg sync.WaitGroup
	for c := 0; c < 32; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if _, _, err := s.Predict(row); err != nil {
					log.Fatal(err)
				}
			}
		}()
	}
	wg.Wait()
	m := s.Metrics()
	fmt.Printf("served %d requests: mean batch %.1f rows/forward, p50 %.0fµs, p99 %.0fµs\n",
		m.Requests(), m.MeanBatch(),
		m.Latency().Quantile(0.50)*1e6, m.Latency().Quantile(0.99)*1e6)

	// 4. Train two more epochs; the reload loop notices the newer
	// checkpoint and swaps in a fresh replica set without dropping a
	// request.
	train(4)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if e, _ := s.Generation(); e > epoch || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	newEpoch, newStep := s.Generation()
	fmt.Printf("hot-reloaded to epoch %d step %d while serving\n", newEpoch, newStep)

	// 5. Drain: admitted requests are answered, then the loops stop.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		log.Fatal(err)
	}
	fmt.Println("drained cleanly")
}
