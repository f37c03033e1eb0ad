package fleet

import (
	"math/rand"
	"sync"
)

// Request balancing: power-of-two-choices least-loaded. Sampling two
// random replicas and taking the less loaded one is exponentially
// better than one random choice and within a whisker of true
// least-loaded, without a global priority queue — the classic
// balls-into-bins result, and the right trade on a hot path. It reads
// only the immutable routeSet snapshot, so balancing never takes a
// lock shared with membership bookkeeping.

// routeSet is one immutable generation of the routing view: the
// route-eligible (healthy, generation-matching) members.
type routeSet struct {
	members []*member
}

// pickRng drives pick2's sampling; guarded because rand.Rand is not
// concurrency-safe and the proxy path is concurrent. (The global
// locked source would work too; a private one keeps tests seedable.)
var pickRng = struct {
	sync.Mutex
	*rand.Rand
}{Rand: rand.New(rand.NewSource(1))}

// pick2 returns the less loaded of two sampled members, skipping any
// in `tried` (failover re-picks). nil when no eligible member
// remains.
func (rs *routeSet) pick2(tried map[*member]bool) *member {
	var pool []*member
	if len(tried) == 0 {
		pool = rs.members
	} else {
		pool = make([]*member, 0, len(rs.members))
		for _, m := range rs.members {
			if !tried[m] {
				pool = append(pool, m)
			}
		}
	}
	switch len(pool) {
	case 0:
		return nil
	case 1:
		return pool[0]
	}
	pickRng.Lock()
	i := pickRng.Intn(len(pool))
	j := pickRng.Intn(len(pool) - 1)
	pickRng.Unlock()
	if j >= i {
		j++ // distinct second sample
	}
	a, b := pool[i], pool[j]
	if b.inflight.Load() < a.inflight.Load() {
		return b
	}
	return a
}
