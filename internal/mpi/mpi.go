// Package mpi is an in-process message-passing substrate modelled on
// the MPI concepts Horovod is built from: a World of ranks, point-to-
// point Send/Recv, and the collectives Broadcast (binomial tree),
// Allreduce (ring), Allgather (ring), and Barrier (dissemination).
//
// Ranks are goroutines; links are FIFO per ordered (src, dst) pair
// exactly as MPI guarantees for a single communicator. Pairs hosted in
// one process use buffered Go channels; a partial world
// (NewPartialWorld) hosts a subset of ranks and carries the links that
// cross the process boundary over internal/transport connections (Unix
// sockets or TCP), so the same collectives run unchanged across OS
// processes. The collectives are the real algorithms — the ring
// allreduce is the same reduce-scatter/allgather scheme NCCL and
// Baidu's tensorflow-allreduce use — so contention, pipelining, and
// straggler effects genuinely occur rather than being merely modelled.
//
// The substrate has a real failure domain (fault.go): a rank that
// errors or panics aborts the world, every blocked operation unwinds
// with a *RankFailedError naming the originating rank, and a FaultPlan
// can script deterministic kills, delays, and link failures.
package mpi

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// packet is one point-to-point message.
type packet struct {
	tag  int
	data []float64
}

// World owns the links for a fixed number of ranks. A world is either
// complete (NewWorld: every rank lives in this process, links are
// channels) or partial (NewPartialWorld: this process hosts a subset of
// ranks and the links that cross the process boundary run over a
// transport.Conn each — see link.go).
type World struct {
	size  int
	links [][]rankLink // links[src][dst]
	// local lists the ranks hosted by this process, ascending; nil
	// means all of them.
	local []int
	// remote link bookkeeping for partial worlds (see link.go).
	outs     []*outLink
	ins      []*inLink
	remoteWG sync.WaitGroup
	closing  atomic.Bool
	// scratch[src][dst] is the reusable send-buffer ring for the
	// (src,dst) link; collectives copy outgoing payloads into it
	// instead of allocating per message (see scratchRing).
	scratch [][]scratchRing
	// segElems is the pipelined-ring segment size for AllreduceSum (in
	// float64 elements); see SetSegmentElems.
	segElems int

	bytesSent atomic.Int64
	msgsSent  atomic.Int64
	// endpoint[r] counts payload bytes entering or leaving rank r —
	// the per-endpoint network load that distinguishes a centralized
	// parameter server (root handles O(N·M)) from a ring allreduce
	// (every rank handles O(M)).
	endpoint []atomic.Int64

	// done closes when the world aborts; failure records the first
	// rank to fail (see fault.go).
	done      chan struct{}
	abortOnce sync.Once
	failure   atomic.Pointer[RankFailedError]
	// faults, when non-nil, scripts deterministic failures.
	faults *FaultPlan
}

// linkBuffer is the per-link channel capacity. Collective schedules
// never have more than a couple of outstanding messages per link; a
// small buffer keeps senders from blocking in the common case without
// hiding backpressure entirely.
const linkBuffer = 8

// scratchSlabs is the length of each link's send-buffer ring. A slab
// is reused after scratchSlabs more sends on the same link. For send
// m+scratchSlabs to be accepted, the link channel (capacity
// linkBuffer) must have delivered message m+2, and a receiver fully
// consumes message m before pulling m+1 (every collective copies or
// reduces a payload before its next Recv on that link), so
// linkBuffer+2 slabs guarantee no slab is overwritten while a receiver
// can still read it.
const scratchSlabs = linkBuffer + 2

// scratchRing rotates reusable payload buffers for one ordered link,
// making collective sends allocation-free in steady state. Only the
// source rank's goroutine touches its rings.
type scratchRing struct {
	bufs [scratchSlabs][]float64
	next int
}

// defaultSegmentElems is the pipelined-ring segment size: allreduces
// larger than this are split into up to maxSegments independently
// ring-reduced segments whose messages interleave on the links, so a
// rank can be receiving one segment while its later segments are
// still in flight.
const defaultSegmentElems = 32 << 10 // 32Ki float64 = 256 KB

// maxSegments caps how many segments are in flight. It must stay at or
// below linkBuffer/2 so a rank's whole send phase fits in the link
// channel even when its neighbor is a full phase behind, keeping the
// schedule deadlock-free.
const maxSegments = 4

// NewWorld creates a world with the given number of ranks.
func NewWorld(size int) *World {
	if size <= 0 {
		panic(fmt.Sprintf("mpi: world size must be positive, got %d", size))
	}
	w := &World{
		size:     size,
		links:    make([][]rankLink, size),
		scratch:  make([][]scratchRing, size),
		segElems: defaultSegmentElems,
		endpoint: make([]atomic.Int64, size),
		done:     make(chan struct{}),
	}
	for s := 0; s < size; s++ {
		w.links[s] = make([]rankLink, size)
		w.scratch[s] = make([]scratchRing, size)
		for d := 0; d < size; d++ {
			if s != d {
				w.links[s][d] = chanLink{ch: make(chan packet, linkBuffer)}
			}
		}
	}
	return w
}

// SetSegmentElems overrides the pipelined-ring segment size for
// AllreduceSum (in float64 elements). Zero or negative restores the
// default. Call before Run; the setting applies world-wide so every
// rank computes the same schedule.
func (w *World) SetSegmentElems(n int) {
	if n <= 0 {
		n = defaultSegmentElems
	}
	w.segElems = n
}

// Size returns the number of ranks.
func (w *World) Size() int { return w.size }

// BytesSent returns the total float64 payload bytes sent so far
// (8 bytes per element), across all ranks.
func (w *World) BytesSent() int64 { return w.bytesSent.Load() }

// MessagesSent returns the total point-to-point messages sent so far.
func (w *World) MessagesSent() int64 { return w.msgsSent.Load() }

// MaxEndpointBytes returns the heaviest per-rank network load — the
// hotspot metric for centralized communication patterns.
func (w *World) MaxEndpointBytes() int64 {
	var mx int64
	for r := range w.endpoint {
		if b := w.endpoint[r].Load(); b > mx {
			mx = b
		}
	}
	return mx
}

// Comm returns the communicator endpoint for one rank, which must be
// hosted by this process.
func (w *World) Comm(rank int) *Comm {
	if rank < 0 || rank >= w.size {
		panic(fmt.Sprintf("mpi: rank %d outside world of size %d", rank, w.size))
	}
	if !w.isLocal(rank) {
		panic(fmt.Sprintf("mpi: rank %d is not hosted by this process (local: %v)", rank, w.local))
	}
	return &Comm{world: w, rank: rank}
}

// LocalRanks returns the ranks hosted by this process, ascending.
func (w *World) LocalRanks() []int {
	if w.local == nil {
		all := make([]int, w.size)
		for i := range all {
			all[i] = i
		}
		return all
	}
	return append([]int(nil), w.local...)
}

func (w *World) isLocal(rank int) bool {
	if w.local == nil {
		return true
	}
	for _, r := range w.local {
		if r == rank {
			return true
		}
	}
	return false
}

// Run executes f once per locally hosted rank, each in its own
// goroutine, and waits for all of them. A rank that returns an error or
// panics aborts the world, so peers blocked in Send/Recv or a
// collective unwind within one collective step instead of deadlocking.
// Run returns the originating failure (as a *RankFailedError wrapping
// the rank's error), never the cascade errors the other ranks observed.
// For a partial world, Run also tears down the cross-process links
// when the local ranks finish: done frames on a clean exit, abort
// frames on a failure, so the peer processes observe the same outcome.
func (w *World) Run(f func(c *Comm) error) error {
	errs := make([]error, w.size)
	var wg sync.WaitGroup
	for _, r := range w.LocalRanks() {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					errs[rank] = fmt.Errorf("mpi: rank %d panicked: %v", rank, p)
					w.Abort(rank, "run", errs[rank])
				}
			}()
			errs[rank] = f(w.Comm(rank))
			if errs[rank] != nil {
				// If the rank is merely reporting the cascade of an
				// earlier abort, the sticky record already names the
				// origin and this call is a no-op.
				w.Abort(rank, "run", errs[rank])
			}
		}(r)
	}
	wg.Wait()
	w.finishRemote()
	if fail := w.failure.Load(); fail != nil {
		return fail
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Comm is one rank's endpoint into a World. A Comm must only be used
// by one goroutine at a time: either a single owning goroutine, or
// several goroutines whose operations are totally ordered by explicit
// synchronization (as the Horovod overlap coordinator does with its
// submit/drain handshake).
type Comm struct {
	world *World
	rank  int
	// ops counts collective operations entered, the "step" unit
	// FaultPlan kills and delays are keyed by.
	ops int
}

// Rank returns this endpoint's rank (hvd.rank()).
func (c *Comm) Rank() int { return c.rank }

// Size returns the world size (hvd.size()).
func (c *Comm) Size() int { return c.world.size }

// Send delivers data to dst with the given tag. The slice is sent by
// reference; collective implementations copy where aliasing would be
// unsafe, and callers doing raw point-to-point sends must not mutate
// the slice until the receiver is done with it (as with MPI buffers).
// Send fails with a *RankFailedError when the world has aborted or a
// scripted link fault fires, instead of blocking forever.
func (c *Comm) Send(dst, tag int, data []float64) error {
	if dst == c.rank {
		panic("mpi: send to self")
	}
	w := c.world
	if p := w.faults; p != nil && p.takeFailSend(c.rank, dst) {
		w.Abort(c.rank, "send", ErrLinkFailed)
		return &RankFailedError{Rank: c.rank, Op: "send", Cause: ErrLinkFailed}
	}
	select {
	case <-w.done:
		return w.abortError("send")
	default:
	}
	if !w.links[c.rank][dst].send(packet{tag: tag, data: data}, w.done) {
		return w.abortError("send")
	}
	w.msgsSent.Add(1)
	payload := int64(8 * len(data))
	w.bytesSent.Add(payload)
	w.endpoint[c.rank].Add(payload)
	w.endpoint[dst].Add(payload)
	return nil
}

// Recv blocks for the next message from src and returns its payload,
// or a *RankFailedError if the world aborts first. It panics if the
// tag does not match, which in a correct collective schedule can only
// mean a protocol bug.
func (c *Comm) Recv(src, tag int) ([]float64, error) {
	if src == c.rank {
		panic("mpi: recv from self")
	}
	w := c.world
	p, ok := w.links[src][c.rank].recv(w.done)
	if !ok {
		return nil, w.abortError("recv")
	}
	if p.tag != tag {
		panic(fmt.Sprintf("mpi: rank %d expected tag %d from %d, got %d", c.rank, tag, src, p.tag))
	}
	return p.data, nil
}

// Collective message tags. Every collective uses its own tag space so
// a schedule bug surfaces as a tag panic instead of silent corruption.
const (
	tagBarrier = -1
	tagBcast   = -2
	tagRing    = -3
	tagGather  = -4
	tagP2P     = 0
)

// Barrier blocks until every rank has entered it (dissemination
// algorithm, ⌈log2 n⌉ rounds) or the world aborts.
func (c *Comm) Barrier() error {
	if err := c.enterOp("barrier"); err != nil {
		return err
	}
	n := c.world.size
	for dist := 1; dist < n; dist <<= 1 {
		if err := c.Send((c.rank+dist)%n, tagBarrier, nil); err != nil {
			return err
		}
		if _, err := c.Recv((c.rank-dist+n)%n, tagBarrier); err != nil {
			return err
		}
	}
	return nil
}

// Broadcast distributes root's data to every rank in place using a
// binomial tree (the MPI_Bcast algorithm). Every rank must pass a
// slice of the same length; non-root contents are overwritten.
func (c *Comm) Broadcast(root int, data []float64) error {
	if err := c.enterOp("broadcast"); err != nil {
		return err
	}
	n := c.world.size
	if n == 1 {
		return nil
	}
	rel := (c.rank - root + n) % n
	mask := 1
	for mask < n {
		if rel&mask != 0 {
			src := (c.rank - mask + n) % n
			got, err := c.Recv(src, tagBcast)
			if err != nil {
				return err
			}
			if len(got) != len(data) {
				panic(fmt.Sprintf("mpi: broadcast length mismatch %d != %d", len(got), len(data)))
			}
			copy(data, got)
			break
		}
		mask <<= 1
	}
	mask >>= 1
	for mask > 0 {
		if rel+mask < n {
			dst := (c.rank + mask) % n
			// Send through link scratch so later local mutation cannot
			// race the receiver and no per-message buffer is allocated.
			if err := c.sendCopy(dst, tagBcast, data); err != nil {
				return err
			}
		}
		mask >>= 1
	}
	return nil
}

// chunkBounds splits length l into n contiguous chunks as evenly as
// possible and returns the n+1 offsets.
func chunkBounds(l, n int) []int {
	off := make([]int, n+1)
	for i := 0; i <= n; i++ {
		off[i] = chunkOff(l, n, i)
	}
	return off
}

// chunkOff is the start offset of chunk i when length l is split into
// n contiguous chunks as evenly as possible (the first l%n chunks get
// one extra element). chunkOff(l, n, n) == l.
func chunkOff(l, n, i int) int {
	base, rem := l/n, l%n
	if i <= rem {
		return i * (base + 1)
	}
	return rem*(base+1) + (i-rem)*base
}

// scratchFor returns the next reusable slab of length n for sends to
// dst, growing it when needed. Steady-state collectives therefore
// allocate nothing: each link cycles through scratchSlabs buffers that
// reach their high-water size after the first few operations.
func (c *Comm) scratchFor(dst, n int) []float64 {
	r := &c.world.scratch[c.rank][dst]
	buf := r.bufs[r.next]
	if cap(buf) < n {
		buf = make([]float64, n)
	}
	buf = buf[:n]
	r.bufs[r.next] = buf
	r.next++
	if r.next == scratchSlabs {
		r.next = 0
	}
	return buf
}

// sendCopy copies data into a link scratch slab and sends the slab, so
// the caller may mutate data immediately and no per-message buffer is
// allocated. Receivers must fully consume the payload before their
// next Recv on the same link (every collective does).
func (c *Comm) sendCopy(dst, tag int, data []float64) error {
	buf := c.scratchFor(dst, len(data))
	copy(buf, data)
	return c.Send(dst, tag, buf)
}

// segments returns how many pipelined segments an allreduce of l
// elements uses: 1 below the segment size, up to maxSegments above it.
func (w *World) segments(l int) int {
	s := l / w.segElems
	if s < 1 {
		return 1
	}
	if s > maxSegments {
		return maxSegments
	}
	return s
}

// AllreduceSum sums data element-wise across all ranks in place using
// the ring algorithm: a reduce-scatter phase followed by an allgather
// phase, each of n−1 steps moving 1/n of the buffer — the same
// bandwidth-optimal schedule NCCL uses.
//
// Large buffers are split into up to maxSegments segments that are
// ring-reduced concurrently (each ring step sends every segment's
// chunk before receiving any), so multiple messages are in flight per
// link and a receiver can reduce one segment while later ones are
// still queued — the pipelined ring. The segmentation is a pure
// function of the length and world size, so every rank computes the
// same schedule and results stay deterministic for a given world size.
func (c *Comm) AllreduceSum(data []float64) error {
	if err := c.enterOp("allreduce"); err != nil {
		return err
	}
	n := c.world.size
	if n == 1 {
		return nil
	}
	segs := c.world.segments(len(data))
	next := (c.rank + 1) % n
	prev := (c.rank - 1 + n) % n

	// Reduce-scatter: within each segment, after step s rank r holds
	// the partial sum of chunk (r-s+n)%n from s+1 ranks.
	for s := 0; s < n-1; s++ {
		sendChunk := (c.rank - s + n) % n
		recvChunk := (c.rank - s - 1 + n) % n
		for g := 0; g < segs; g++ {
			seg := data[chunkOff(len(data), segs, g):chunkOff(len(data), segs, g+1)]
			if err := c.sendCopy(next, tagRing, seg[chunkOff(len(seg), n, sendChunk):chunkOff(len(seg), n, sendChunk+1)]); err != nil {
				return err
			}
		}
		for g := 0; g < segs; g++ {
			got, err := c.Recv(prev, tagRing)
			if err != nil {
				return err
			}
			seg := data[chunkOff(len(data), segs, g):chunkOff(len(data), segs, g+1)]
			dst := seg[chunkOff(len(seg), n, recvChunk):chunkOff(len(seg), n, recvChunk+1)]
			for i, v := range got {
				dst[i] += v
			}
		}
	}
	// Allgather: circulate the fully reduced chunks.
	for s := 0; s < n-1; s++ {
		sendChunk := (c.rank + 1 - s + n) % n
		recvChunk := (c.rank - s + n) % n
		for g := 0; g < segs; g++ {
			seg := data[chunkOff(len(data), segs, g):chunkOff(len(data), segs, g+1)]
			if err := c.sendCopy(next, tagRing, seg[chunkOff(len(seg), n, sendChunk):chunkOff(len(seg), n, sendChunk+1)]); err != nil {
				return err
			}
		}
		for g := 0; g < segs; g++ {
			got, err := c.Recv(prev, tagRing)
			if err != nil {
				return err
			}
			seg := data[chunkOff(len(data), segs, g):chunkOff(len(data), segs, g+1)]
			copy(seg[chunkOff(len(seg), n, recvChunk):chunkOff(len(seg), n, recvChunk+1)], got)
		}
	}
	return nil
}

// AllreduceMean averages data element-wise across all ranks in place —
// the operation Horovod's DistributedOptimizer applies to gradients.
func (c *Comm) AllreduceMean(data []float64) error {
	if err := c.AllreduceSum(data); err != nil {
		return err
	}
	inv := 1 / float64(c.world.size)
	for i := range data {
		data[i] *= inv
	}
	return nil
}

// Allgather collects each rank's (equal-length) contribution and
// returns them indexed by rank, using a ring schedule. The result is
// freshly allocated; use AllgatherInto for the allocation-free flat
// variant.
func (c *Comm) Allgather(mine []float64) ([][]float64, error) {
	n := c.world.size
	flat := make([]float64, n*len(mine))
	if err := c.AllgatherInto(mine, flat); err != nil {
		return nil, err
	}
	out := make([][]float64, n)
	for r := 0; r < n; r++ {
		out[r] = flat[r*len(mine) : (r+1)*len(mine)]
	}
	return out, nil
}

// AllgatherInto is the allocation-free Allgather: it gathers every
// rank's (equal-length) contribution into out, which must have
// world-size × len(mine) elements and is laid out by rank. Sends go
// through the link scratch rings, so a warmed steady state performs
// zero allocations.
func (c *Comm) AllgatherInto(mine, out []float64) error {
	if err := c.enterOp("allgather"); err != nil {
		return err
	}
	n := c.world.size
	if len(out) != n*len(mine) {
		panic(fmt.Sprintf("mpi: allgather out length %d != %d ranks × %d", len(out), n, len(mine)))
	}
	block := func(r int) []float64 { return out[r*len(mine) : (r+1)*len(mine)] }
	copy(block(c.rank), mine)
	if n == 1 {
		return nil
	}
	next := (c.rank + 1) % n
	prev := (c.rank - 1 + n) % n
	curRank := c.rank
	for s := 0; s < n-1; s++ {
		if err := c.sendCopy(next, tagGather, block(curRank)); err != nil {
			return err
		}
		got, err := c.Recv(prev, tagGather)
		if err != nil {
			return err
		}
		curRank = (curRank - 1 + n) % n
		copy(block(curRank), got)
	}
	return nil
}
