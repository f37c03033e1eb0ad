package candle

import (
	"errors"
	"fmt"
	"sync"

	"candle/internal/launch"
	"candle/internal/mpi"
)

// runDistributed is Run's worker-process path: join the rendezvous,
// build the partial world over the assigned links, and run the same
// three phases Run runs — the schedule depends only on global
// rank/size/seed, so results are bit-identical to the in-process world
// of the same total size. Elastic restarts are the launcher's job at
// this level: a rank failure (local or a lost peer process) surfaces as
// the same typed *mpi.RankFailedError the in-process path produces, and
// the launcher's elastic driver decides whether to respawn a shrunken
// generation.
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
	results, err := b.runOnWorld(cfg, world, false)
	if err != nil {
		return nil, err
	}
	return cfg.result(results, nil), nil
}

// RunMultiProc runs the benchmark as `procs` independent worker
// sessions inside this one OS process, connected through a real
// rendezvous round and real transport links (cfg.Transport; "unix"
// exercises actual sockets). It is the launcher's world shape without
// the process spawns — what the scenario harness, tests, and the
// transport benchmark use to sweep cross-process behavior cheaply.
//
// cfg.Ranks is the total world size and must divide evenly by procs.
// Each session is one group of the elastic driver, as each worker
// process is under candle launch: with cfg.Elastic, a rank failure
// drops the session hosting the failed rank, the survivors rendezvous
// again as generation g+1 and resume from the checkpoint, and consumed
// faults stay consumed.
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
	if err := cfg.validateNames(); err != nil {
		return nil, err
	}
	transportName := cfg.Transport
	if transportName == "" {
		transportName = "inproc"
	}
	groups := make([]int, procs)
	for i := range groups {
		groups[i] = cfg.Ranks / procs
	}
	results, failures, err := Elastic(groups, cfg.Elastic, func(groups []int, gen int) ([]RankResult, error) {
		return b.multiProcAttempt(cfg, transportName, groups, gen)
	})
	if err != nil {
		return nil, err
	}
	return cfg.result(results, failures), nil
}

// multiProcAttempt runs one generation: a rendezvous round plus one
// worker session per group, each on its own goroutine, merged into one
// result set in rank order. The first rank failure wins error
// reporting, exactly like World.Run.
func (b *Benchmark) multiProcAttempt(cfg RunConfig, transportName string, groups []int, gen int) ([]RankResult, error) {
	sessions, err := launch.StartLocal(transportName, len(groups), groups[0], gen)
	if err != nil {
		return nil, err
	}
	perProc := make([][]RankResult, len(sessions))
	errs := make([]error, len(sessions))
	var wg sync.WaitGroup
	for p, sess := range sessions {
		wg.Add(1)
		go func(p int, sess *launch.Session) {
			defer wg.Done()
			defer sess.Close()
			world, err := sess.NewWorld()
			if err != nil {
				sess.CloseConns()
				errs[p] = err
				return
			}
			// Later generations resume from the shared checkpoint
			// directory, as Run's do.
			perProc[p], errs[p] = b.runOnWorld(cfg, world, gen > 0)
		}(p, sess)
	}
	wg.Wait()
	// A rank failure anywhere beats secondary errors: it is the
	// originating event the cascade (and the elastic driver) keys off.
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
