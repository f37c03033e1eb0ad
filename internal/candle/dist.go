package candle

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"candle/internal/launch"
	"candle/internal/mpi"
)

// runDistributed is Run's worker-process path: join the rendezvous,
// build the partial world over the assigned links, and run the same
// three phases runAttempt runs — the schedule depends only on global
// rank/size/seed, so results are bit-identical to the in-process world
// of the same total size. Elastic restarts are the launcher's job at
// this level: a rank failure (local or a lost peer process) surfaces as
// the same typed *mpi.RankFailedError the in-process path produces, and
// the launcher decides whether to respawn a shrunken generation.
func (b *Benchmark) runDistributed(cfg RunConfig) (*RunResult, error) {
	sess, err := launch.Join(launch.JoinConfig{
		Network:    cfg.rendezvousNetwork(),
		Rendezvous: cfg.Rendezvous,
		Transport:  cfg.Transport,
		Proc:       cfg.ProcIndex,
		Ranks:      cfg.LocalRanks,
		Gen:        cfg.Generation,
	})
	if err != nil {
		return nil, err
	}
	defer sess.Close()
	if cfg.Ranks > 0 && sess.WorldSize != cfg.Ranks {
		sess.CloseConns()
		return nil, fmt.Errorf("candle: rendezvous assigned a world of %d ranks, expected %d", sess.WorldSize, cfg.Ranks)
	}
	world, err := sess.NewWorld()
	if err != nil {
		sess.CloseConns()
		return nil, err
	}
	if cfg.Faults != nil {
		world.InjectFaults(cfg.Faults)
	}
	results, err := b.runOnWorld(cfg, world, false)
	if err != nil {
		return nil, err
	}
	return &RunResult{
		Config:      cfg,
		Ranks:       results,
		Root:        results[0],
		FaultsFired: cfg.Faults.Fired(),
	}, nil
}

// RunMultiProc runs the benchmark as `procs` independent worker
// sessions inside this one OS process, connected through a real
// rendezvous round and real transport links (cfg.Transport; "unix"
// exercises actual sockets). It is the launcher's world shape without
// the process spawns — what the scenario harness, tests, and the
// transport benchmark use to sweep cross-process behavior cheaply.
//
// cfg.Ranks is the total world size and must divide evenly by procs.
// With cfg.Elastic, a generation that fails with a rank failure is
// retried the way candle launch retries it: the proc hosting the
// failed rank is dropped, the survivors rendezvous again as generation
// g+1 with forceResume, and consumed faults stay consumed.
func (b *Benchmark) RunMultiProc(cfg RunConfig, procs int) (*RunResult, error) {
	if procs <= 0 {
		return nil, fmt.Errorf("candle: procs must be positive, got %d", procs)
	}
	if cfg.Ranks <= 0 || cfg.Ranks%procs != 0 {
		return nil, fmt.Errorf("candle: %d ranks do not divide evenly over %d procs", cfg.Ranks, procs)
	}
	if cfg.TotalEpochs <= 0 {
		return nil, fmt.Errorf("candle: total epochs must be positive, got %d", cfg.TotalEpochs)
	}
	if cfg.Rendezvous != "" || cfg.LocalRanks != 0 {
		return nil, fmt.Errorf("candle: RunMultiProc owns the rendezvous; leave Rendezvous and LocalRanks unset")
	}
	elastic := cfg.Elastic
	transportName := cfg.Transport
	if transportName == "" {
		transportName = "inproc"
	}
	// Static validation of everything else, with the per-proc fields
	// stubbed in the shape the workers will use.
	probe := cfg
	probe.Elastic = false
	probe.Transport = transportName
	probe.Rendezvous = "probe"
	probe.LocalRanks = cfg.Ranks / procs
	if err := probe.Validate(); err != nil {
		return nil, err
	}

	ranksPerProc := cfg.Ranks / procs
	size := cfg.Ranks
	gen := 0
	var failures []FailureRecord
	for {
		results, err := b.multiProcAttempt(cfg, transportName, procs, ranksPerProc, size, gen)
		if err == nil {
			sort.Slice(results, func(i, j int) bool { return results[i].Rank < results[j].Rank })
			return &RunResult{
				Config:      cfg,
				Ranks:       results,
				Root:        results[0],
				Failures:    failures,
				Restarts:    len(failures),
				FaultsFired: cfg.Faults.Fired(),
			}, nil
		}
		var rf *mpi.RankFailedError
		if !elastic || !errors.As(err, &rf) {
			return nil, err
		}
		failures = append(failures, FailureRecord{
			Rank: rf.Rank, WorldSize: size, Op: rf.Op, Err: rf,
		})
		// The launcher's recovery shape: drop the whole proc hosting the
		// failed rank and rendezvous the survivors as the next
		// generation.
		procs--
		size -= ranksPerProc
		gen++
		if procs < 1 || size < 1 {
			return nil, fmt.Errorf("candle: elastic recovery exhausted all procs: %w", err)
		}
	}
}

// multiProcAttempt runs one generation: a rendezvous round plus procs
// worker sessions, each on its own goroutine, merged into one result
// set. The first rank failure wins error reporting, exactly like
// World.Run.
func (b *Benchmark) multiProcAttempt(cfg RunConfig, transportName string, procs, ranksPerProc, size, gen int) ([]RankResult, error) {
	sessions, err := launch.StartLocal(transportName, procs, ranksPerProc, gen)
	if err != nil {
		return nil, err
	}
	perProc := make([][]RankResult, procs)
	errs := make([]error, procs)
	var wg sync.WaitGroup
	for p, sess := range sessions {
		wg.Add(1)
		go func(p int, sess *launch.Session) {
			defer wg.Done()
			defer sess.Close()
			if sess.WorldSize != size {
				sess.CloseConns()
				errs[p] = fmt.Errorf("candle: proc %d assigned world %d, expected %d", p, sess.WorldSize, size)
				return
			}
			world, err := sess.NewWorld()
			if err != nil {
				sess.CloseConns()
				errs[p] = err
				return
			}
			if cfg.Faults != nil {
				world.InjectFaults(cfg.Faults)
			}
			wcfg := cfg
			wcfg.Elastic = false
			// Elastic generations resume from the shared checkpoint
			// directory, mirroring runAttempt's forceResume.
			perProc[p], errs[p] = b.runOnWorld(wcfg, world, gen > 0)
		}(p, sess)
	}
	wg.Wait()
	// A rank failure anywhere beats secondary errors: it is the
	// originating event the cascade (and the elastic loop) keys off.
	var firstErr error
	for _, err := range errs {
		if err == nil {
			continue
		}
		var rf *mpi.RankFailedError
		if errors.As(err, &rf) {
			return nil, err
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	var all []RankResult
	for _, rs := range perProc {
		all = append(all, rs...)
	}
	return all, nil
}
