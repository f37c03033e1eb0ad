package candle

import (
	"errors"
	"testing"

	"candle/internal/mpi"
)

// TestElasticDriver drives the driver with a scripted attempt: each
// generation either fails with the next scripted error or returns the
// ranks of the world it was given.
func TestElasticDriver(t *testing.T) {
	kill := func(rank int) error {
		return &mpi.RankFailedError{Rank: rank, Op: "allreduce", Cause: mpi.ErrKilled}
	}
	plain := errors.New("disk full")
	for _, tc := range []struct {
		name      string
		groups    []int
		elastic   bool
		errs      []error // the error of generation i; nil or past the end succeeds
		wantRanks int     // survivors of a completed run
		wantFails []FailureRecord
		wantErr   error // errors.Is target when the run fails
		wantRF    bool  // the failure still errors.As a RankFailedError
		wantGens  int
	}{
		{
			name: "groups of one lose one rank", groups: []int{1, 1, 1, 1}, elastic: true,
			errs: []error{kill(2)}, wantRanks: 3, wantGens: 2,
			wantFails: []FailureRecord{{Rank: 2, Group: 2, WorldSize: 4, Op: "allreduce"}},
		},
		{
			name: "groups of two lose the failed rank's group", groups: []int{2, 2}, elastic: true,
			errs: []error{kill(3)}, wantRanks: 2, wantGens: 2,
			wantFails: []FailureRecord{{Rank: 3, Group: 1, WorldSize: 4, Op: "allreduce"}},
		},
		{
			name: "renumbered ranks map to original groups", groups: []int{1, 1, 1}, elastic: true,
			errs: []error{kill(0), kill(1)}, wantRanks: 1, wantGens: 3,
			wantFails: []FailureRecord{
				{Rank: 0, Group: 0, WorldSize: 3, Op: "allreduce"},
				{Rank: 1, Group: 2, WorldSize: 2, Op: "allreduce"},
			},
		},
		{
			name: "exhaustion", groups: []int{2, 2}, elastic: true,
			errs: []error{kill(0), kill(1)}, wantErr: mpi.ErrKilled, wantRF: true, wantGens: 2,
		},
		{
			name: "non-elastic returns the first error", groups: []int{1, 1}, elastic: false,
			errs: []error{kill(1)}, wantErr: mpi.ErrKilled, wantRF: true, wantGens: 1,
		},
		{
			name: "other errors are never retried", groups: []int{1, 1}, elastic: true,
			errs: []error{plain}, wantErr: plain, wantGens: 1,
		},
		{
			name: "a rank no group hosts is not retried", groups: []int{1, 1}, elastic: true,
			errs: []error{kill(5)}, wantErr: mpi.ErrKilled, wantRF: true, wantGens: 1,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			gens := 0
			ranks, fails, err := Elastic(tc.groups, tc.elastic, func(groups []int, gen int) ([]int, error) {
				if gen != gens {
					t.Fatalf("attempt got generation %d, want %d", gen, gens)
				}
				gens++
				if gen < len(tc.errs) && tc.errs[gen] != nil {
					return nil, tc.errs[gen]
				}
				var ranks []int
				for _, n := range groups {
					for i := 0; i < n; i++ {
						ranks = append(ranks, len(ranks))
					}
				}
				return ranks, nil
			})
			if gens != tc.wantGens {
				t.Fatalf("%d generations ran, want %d", gens, tc.wantGens)
			}
			if tc.wantErr != nil {
				if !errors.Is(err, tc.wantErr) {
					t.Fatalf("err = %v, want %v", err, tc.wantErr)
				}
				if tc.wantErr == plain && err != plain {
					t.Fatalf("err = %v, want the attempt's error untouched", err)
				}
				var rf *mpi.RankFailedError
				if got := errors.As(err, &rf); got != tc.wantRF {
					t.Fatalf("errors.As(%v, RankFailedError) = %v, want %v", err, got, tc.wantRF)
				}
				if !tc.elastic && err != tc.errs[0] {
					t.Fatalf("non-elastic err = %v, want the first error untouched", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(ranks) != tc.wantRanks || ranks[0] != 0 || ranks[len(ranks)-1] != tc.wantRanks-1 {
				t.Fatalf("survivors = %v, want ranks 0..%d", ranks, tc.wantRanks-1)
			}
			if len(fails) != len(tc.wantFails) {
				t.Fatalf("failures = %+v, want %+v", fails, tc.wantFails)
			}
			for i, f := range fails {
				w := tc.wantFails[i]
				if f.Rank != w.Rank || f.Group != w.Group || f.WorldSize != w.WorldSize || f.Op != w.Op || !errors.Is(f.Err, mpi.ErrKilled) {
					t.Fatalf("failure %d = %+v, want %+v", i, f, w)
				}
			}
		})
	}
}
