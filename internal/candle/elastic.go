package candle

import (
	"errors"
	"fmt"

	"candle/internal/mpi"
)

// Elastic is the one elastic driver. Every run shape is an attempt over
// it: Run uses groups of one rank, RunMultiProc one group per
// in-process worker session, and candle launch one group per worker
// process. groups[i] is the rank count of group i; ranks are numbered
// in group order.
//
// attempt runs world generation gen on the surviving groups' sizes.
// When it fails with a *mpi.RankFailedError and elastic is set, the
// group hosting the failed rank is dropped, the failure is recorded,
// and the survivors run again as generation gen+1; an attempt resumes
// from the latest checkpoint whenever gen > 0. Any other error, a
// failed rank no group hosts, and every error without elastic come
// back as attempt returned them. Losing the last group returns an
// error that still wraps the RankFailedError.
func Elastic[R any](groups []int, elastic bool, attempt func(groups []int, gen int) (R, error)) (R, []FailureRecord, error) {
	alive := make([]int, len(groups)) // original index of each survivor
	for i := range alive {
		alive[i] = i
	}
	var failures []FailureRecord
	for gen := 0; ; gen++ {
		sizes := make([]int, len(alive))
		world := 0
		for i, g := range alive {
			sizes[i] = groups[g]
			world += groups[g]
		}
		res, err := attempt(sizes, gen)
		var rf *mpi.RankFailedError
		if err == nil || !elastic || !errors.As(err, &rf) {
			return res, failures, err
		}
		pos := groupOf(sizes, rf.Rank)
		if pos < 0 {
			return res, failures, err
		}
		failures = append(failures, FailureRecord{
			Rank: rf.Rank, Group: alive[pos], WorldSize: world, Op: rf.Op, Err: rf,
		})
		alive = append(alive[:pos:pos], alive[pos+1:]...)
		if len(alive) == 0 {
			var zero R
			return zero, failures, fmt.Errorf("candle: elastic recovery exhausted every rank group: %w", err)
		}
	}
}

// groupOf returns the position of the group hosting rank, or -1.
func groupOf(sizes []int, rank int) int {
	lo := 0
	for i, n := range sizes {
		if rank >= lo && rank < lo+n {
			return i
		}
		lo += n
	}
	return -1
}
