package dataload

import (
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"candle/internal/csvio"
	"candle/internal/mpi"
	"candle/internal/tensor"
	"candle/internal/trace"
)

// genCSV builds a deterministic CSV exercising the parser's edge
// cases: integer and float cells, negatives, exponents, blank lines,
// and \r\n line endings.
func genCSV(seed int64, rows, cols int) string {
	rng := rand.New(rand.NewSource(seed))
	var sb strings.Builder
	for i := 0; i < rows; i++ {
		if i > 0 && rng.Intn(11) == 0 {
			sb.WriteString("\n") // blank line: skipped, but counted
		}
		for j := 0; j < cols; j++ {
			if j > 0 {
				sb.WriteByte(',')
			}
			switch rng.Intn(4) {
			case 0:
				fmt.Fprintf(&sb, "%d", rng.Intn(2000)-1000)
			case 1:
				fmt.Fprintf(&sb, "%.4f", rng.NormFloat64())
			case 2:
				fmt.Fprintf(&sb, "%g", rng.ExpFloat64()*1e-3)
			default:
				fmt.Fprintf(&sb, "%de%d", rng.Intn(90)+10, rng.Intn(5)-2)
			}
		}
		if rng.Intn(7) == 0 {
			sb.WriteString("\r\n")
		} else {
			sb.WriteString("\n")
		}
	}
	return sb.String()
}

func writeFile(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "data.csv")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func mustRead(t *testing.T, r csvio.Reader, path string) *tensor.Matrix {
	t.Helper()
	m, _, err := r.Read(path)
	if err != nil {
		t.Fatalf("%s: %v", r.Name(), err)
	}
	return m
}

// TestShardStartPartition checks the boundary rule: shards tile the
// file exactly, every boundary is a line start, and the partition is
// the same no matter which rank computes it.
func TestShardStartPartition(t *testing.T) {
	for _, rows := range []int{1, 2, 7, 100} {
		content := genCSV(int64(rows), rows, 5)
		path := writeFile(t, content)
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		size := int64(len(content))
		for _, n := range []int{1, 2, 3, 4, 9} {
			prev := int64(0)
			for i := 0; i <= n; i++ {
				off, err := shardStart(f, size, i, n)
				if err != nil {
					t.Fatal(err)
				}
				if off < prev {
					t.Fatalf("rows=%d n=%d shard %d start %d < previous %d", rows, n, i, off, prev)
				}
				if off > 0 && off < size && content[off-1] != '\n' {
					t.Fatalf("rows=%d n=%d shard %d starts mid-line at %d", rows, n, i, off)
				}
				prev = off
			}
			if first, _ := shardStart(f, size, 0, n); first != 0 {
				t.Fatalf("shard 0 starts at %d", first)
			}
			if last, _ := shardStart(f, size, n, n); last != size {
				t.Fatalf("shard %d ends at %d, want %d", n, last, size)
			}
		}
		f.Close()
	}
}

// TestEnginesProduceIdenticalMatrices is the parity property: every
// registered engine — and the sharded engine at several world sizes,
// in both exchange modes — produces a bit-identical matrix from the
// same file.
func TestEnginesProduceIdenticalMatrices(t *testing.T) {
	cases := []struct {
		seed       int64
		rows, cols int
	}{
		{1, 1, 1},
		{2, 2, 3},
		{3, 3, 40}, // fewer rows than a 4-rank world
		{4, 57, 11},
		{5, 200, 23},
	}
	for _, tc := range cases {
		path := writeFile(t, genCSV(tc.seed, tc.rows, tc.cols))
		want := mustRead(t, csvio.NewNaiveReader(), path)

		for _, name := range csvio.Engines() {
			r, err := csvio.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			if dl, ok := r.(*Loader); ok {
				dl.Cache = false // parity of the parse itself
			}
			got := mustRead(t, r, path)
			if !got.Equal(want) {
				t.Fatalf("seed %d: engine %q differs from naive", tc.seed, name)
			}
		}

		for _, world := range []int{2, 4} {
			for _, deferred := range []bool{false, true} {
				var mu sync.Mutex
				got := make([]*tensor.Matrix, world)
				err := mpi.NewWorld(world).Run(func(c *mpi.Comm) error {
					l := &Loader{Comm: c, DeferExchange: deferred, BlockRows: 16}
					m, stats, err := l.Read(path)
					if err != nil {
						return err
					}
					if stats.CacheHit {
						return fmt.Errorf("rank %d: unexpected cache hit", c.Rank())
					}
					mu.Lock()
					got[c.Rank()] = m
					mu.Unlock()
					return nil
				})
				if err != nil {
					t.Fatalf("seed %d world %d deferred %v: %v", tc.seed, world, deferred, err)
				}
				for rank, m := range got {
					if !m.Equal(want) {
						t.Fatalf("seed %d world %d deferred %v: rank %d matrix differs from naive",
							tc.seed, world, deferred, rank)
					}
				}
			}
		}
	}
}

// parseLineOf extracts the ParseError line an engine reports for path,
// unwrapping through mpi.RankFailedError when the read ran on a world.
func parseLineOf(t *testing.T, err error, label string) int {
	t.Helper()
	if err == nil {
		t.Fatalf("%s: expected a parse error", label)
	}
	var pe *csvio.ParseError
	if !errors.As(err, &pe) {
		t.Fatalf("%s: error %v is not a *csvio.ParseError", label, err)
	}
	return pe.Line
}

// TestEngineErrorLinesAgree: ragged rows, truncated final rows, and
// malformed cells must be reported with the same 1-based line number
// by every engine, including the sharded engine across world sizes.
func TestEngineErrorLinesAgree(t *testing.T) {
	mkRows := func(n, cols int) []string {
		rows := make([]string, n)
		for i := range rows {
			cells := make([]string, cols)
			for j := range cells {
				cells[j] = fmt.Sprintf("%d.%d", i, j)
			}
			rows[i] = strings.Join(cells, ",")
		}
		return rows
	}
	cases := []struct {
		name    string
		content string
	}{
		{"ragged-mid", func() string {
			rows := mkRows(60, 6)
			rows[41] = "1,2,3" // ragged, well inside shard 2 of 4
			return strings.Join(rows, "\n") + "\n"
		}()},
		{"bad-cell", func() string {
			rows := mkRows(60, 6)
			rows[17] = "1,2,zap,4,5,6"
			return strings.Join(rows, "\n") + "\n"
		}()},
		{"truncated-final", func() string {
			rows := mkRows(60, 6)
			return strings.Join(rows, "\n") + "\n9,9" // no trailing newline
		}()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := writeFile(t, tc.content)
			_, _, err := csvio.NewNaiveReader().Read(path)
			want := parseLineOf(t, err, "naive")

			for _, name := range csvio.Engines() {
				r, _ := csvio.ByName(name)
				if dl, ok := r.(*Loader); ok {
					dl.Cache = false
				}
				_, _, err := r.Read(path)
				if got := parseLineOf(t, err, name); got != want {
					t.Errorf("engine %q reports line %d, naive reports %d", name, got, want)
				}
			}
			for _, world := range []int{2, 4} {
				for _, deferred := range []bool{false, true} {
					err := mpi.NewWorld(world).Run(func(c *mpi.Comm) error {
						_, _, err := (&Loader{Comm: c, DeferExchange: deferred}).Read(path)
						if err == nil {
							return fmt.Errorf("rank %d: expected parse error", c.Rank())
						}
						return err
					})
					label := fmt.Sprintf("sharded world=%d deferred=%v", world, deferred)
					if got := parseLineOf(t, err, label); got != want {
						t.Errorf("%s reports line %d, naive reports %d", label, got, want)
					}
				}
			}
		})
	}
}

// TestGzipRoundTripAllEngines: every registered engine reads back a
// gzip-compressed CSV identical to the plain one, and the engines
// that shard or parallelize report the forced serial pass.
func TestGzipRoundTripAllEngines(t *testing.T) {
	content := genCSV(77, 80, 9)
	plain := writeFile(t, content)
	gzPath := filepath.Join(t.TempDir(), "data.csv.gz")
	f, err := os.Create(gzPath)
	if err != nil {
		t.Fatal(err)
	}
	zw := gzip.NewWriter(f)
	if _, err := io.WriteString(zw, content); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	want := mustRead(t, csvio.NewNaiveReader(), plain)

	for _, name := range csvio.Engines() {
		r, _ := csvio.ByName(name)
		if dl, ok := r.(*Loader); ok {
			dl.Cache = false
		}
		m, stats, err := r.Read(gzPath)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !m.Equal(want) {
			t.Fatalf("engine %q: gzip read differs from plain", name)
		}
		switch name {
		case "parallel", EngineName:
			if !stats.SerialFallback {
				t.Errorf("engine %q: gzip read should report SerialFallback", name)
			}
		}
	}

	// Sharded on a world: gzip defeats byte-range sharding, so every
	// rank parses the whole stream with no collectives — and must not
	// deadlock or diverge.
	err = mpi.NewWorld(3).Run(func(c *mpi.Comm) error {
		m, stats, err := (&Loader{Comm: c}).Read(gzPath)
		if err != nil {
			return err
		}
		if !stats.SerialFallback {
			return fmt.Errorf("rank %d: want SerialFallback on gzip", c.Rank())
		}
		if !m.Equal(want) {
			return fmt.Errorf("rank %d: gzip matrix differs", c.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCacheWarmStaleCorrupt covers the cache life cycle: a cold read
// writes the cache, a warm read serves from it bit-identically, a
// touched source invalidates it, and a corrupted file is detected and
// rebuilt.
func TestCacheWarmStaleCorrupt(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "train.csv")
	if err := os.WriteFile(path, []byte(genCSV(9, 120, 7)), 0o644); err != nil {
		t.Fatal(err)
	}
	cacheDir := t.TempDir()
	l := func() *Loader { return &Loader{Cache: true, CacheDir: cacheDir} }

	cold, coldStats, err := l().Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if coldStats.CacheHit {
		t.Fatal("first read reported a cache hit")
	}
	cachePath := CachePath(path, cacheDir)
	if _, err := os.Stat(cachePath); err != nil {
		t.Fatalf("cold read did not write the cache: %v", err)
	}

	warm, warmStats, err := l().Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if !warmStats.CacheHit {
		t.Fatal("second read missed the cache")
	}
	if !warm.Equal(cold) {
		t.Fatal("cache round-trip is not bit-identical")
	}
	if warmStats.BytesRead != int64(8*cold.Rows*cold.Cols) {
		t.Fatalf("warm BytesRead %d, want payload %d", warmStats.BytesRead, 8*cold.Rows*cold.Cols)
	}

	// Rewrite the source (different size and mtime): stale cache must
	// be ignored and rebuilt from the new content.
	if err := os.WriteFile(path, []byte(genCSV(10, 90, 7)), 0o644); err != nil {
		t.Fatal(err)
	}
	future := time.Now().Add(2 * time.Second)
	if err := os.Chtimes(path, future, future); err != nil {
		t.Fatal(err)
	}
	fresh, freshStats, err := l().Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if freshStats.CacheHit {
		t.Fatal("stale cache was served")
	}
	want := mustRead(t, csvio.NewNaiveReader(), path)
	if !fresh.Equal(want) {
		t.Fatal("post-invalidation read differs from naive")
	}

	// Flip a payload byte: CRC must reject it and the read re-parses.
	raw, err := os.ReadFile(cachePath)
	if err != nil {
		t.Fatal(err)
	}
	raw[cacheHeaderLen+3] ^= 0x40
	if err := os.WriteFile(cachePath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	fi, _ := os.Stat(path)
	if _, _, err := readCache(cachePath, fi.Size(), fi.ModTime().UnixNano()); !errors.Is(err, ErrCacheCorrupt) {
		t.Fatalf("corrupted cache read: %v, want ErrCacheCorrupt", err)
	}
	again, againStats, err := l().Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if againStats.CacheHit {
		t.Fatal("corrupt cache was served")
	}
	if !again.Equal(want) {
		t.Fatal("post-corruption read differs from naive")
	}
}

// TestReadCacheStale exercises the identity check directly.
func TestReadCacheStale(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "c.bin")
	m := tensor.FromSlice(2, 2, []float64{1, 2, 3, 4})
	if err := writeCache(p, 100, 200, m); err != nil {
		t.Fatal(err)
	}
	if got, _, err := readCache(p, 100, 200); err != nil || !got.Equal(m) {
		t.Fatalf("round trip: %v", err)
	}
	if _, _, err := readCache(p, 101, 200); !errors.Is(err, ErrCacheStale) {
		t.Fatalf("size change: %v, want ErrCacheStale", err)
	}
	if _, _, err := readCache(p, 100, 201); !errors.Is(err, ErrCacheStale) {
		t.Fatalf("mtime change: %v, want ErrCacheStale", err)
	}
}

// TestCacheCoherentAcrossRanks: a multi-rank cold run writes the cache
// once (rank 0, after the exchange), and a warm run hits it on every
// rank with no collectives — so hit and miss can never mix within a
// run — and both rounds hand every rank the naive reader's matrix, bit
// for bit. The second file has the cells real expression matrices carry.
func TestCacheCoherentAcrossRanks(t *testing.T) {
	for _, tc := range []struct {
		name  string
		path  string
		world int
	}{
		{"mixed cells", writeFile(t, genCSV(31, 64, 5)), 3},
		{"full-precision cells", fullPrecisionCSV(t, 600, 40), 4},
	} {
		want := mustRead(t, csvio.NewNaiveReader(), tc.path)
		cacheDir := t.TempDir()
		for round, wantHit := range []bool{false, true} {
			err := mpi.NewWorld(tc.world).Run(func(c *mpi.Comm) error {
				m, stats, err := (&Loader{Comm: c, Cache: true, CacheDir: cacheDir, DeferExchange: true}).Read(tc.path)
				if err != nil {
					return err
				}
				if stats.CacheHit != wantHit {
					return fmt.Errorf("rank %d round %d: CacheHit=%v, want %v", c.Rank(), round, stats.CacheHit, wantHit)
				}
				if !m.Equal(want) {
					return fmt.Errorf("rank %d round %d: matrix differs", c.Rank(), round)
				}
				return nil
			})
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
		}
	}
}

// fullPrecisionCSV writes rows x cols standard-normal cells in
// csvio.WriteCSV's shortest round-trip form (~18 characters each).
func fullPrecisionCSV(t *testing.T, rows, cols int) string {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	m := tensor.New(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	path := filepath.Join(t.TempDir(), "full.csv")
	if err := csvio.WriteCSV(path, m); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestStreamingDeliversBlocks: a single-process Open with small
// BlockRows yields multiple blocks whose concatenation equals the
// whole-file read, and the stats arrive after EOF.
func TestStreamingDeliversBlocks(t *testing.T) {
	path := writeFile(t, genCSV(44, 100, 4))
	want := mustRead(t, csvio.NewNaiveReader(), path)

	l := &Loader{BlockRows: 8}
	src, err := l.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	blocks := 0
	rows := 0
	var all []float64
	for {
		blk, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		blocks++
		rows += blk.Rows
		all = append(all, blk.Data...)
	}
	if blocks < 2 {
		t.Fatalf("want multiple blocks from BlockRows=8 over %d rows, got %d", want.Rows, blocks)
	}
	got := tensor.FromSlice(rows, want.Cols, all)
	if !got.Equal(want) {
		t.Fatal("concatenated blocks differ from whole-file read")
	}
	if _, err := src.Next(); err != io.EOF {
		t.Fatalf("after EOF: %v", err)
	}
	stats := src.(csvio.StatSource).Stats()
	if stats.Rows != want.Rows || stats.Seconds <= 0 {
		t.Fatalf("stats after EOF: %+v", stats)
	}
}

// TestCloseAbortsProducer: closing a stream mid-drain unblocks the
// producer; subsequent Next reports the closed stream.
func TestCloseAbortsProducer(t *testing.T) {
	path := writeFile(t, genCSV(45, 400, 6))
	l := &Loader{BlockRows: 4, Prefetch: 1}
	src, err := l.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := src.Next(); err != nil {
		t.Fatal(err)
	}
	if err := src.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := src.Next(); err == nil || err == io.EOF {
		t.Fatalf("Next after Close: %v, want closed error", err)
	}
}

// TestEmptyFile: a zero-byte file errors like the whole-file engines,
// on one rank and on a world.
func TestEmptyFile(t *testing.T) {
	path := writeFile(t, "")
	if _, _, err := (&Loader{}).Read(path); err == nil || !strings.Contains(err.Error(), "empty") {
		t.Fatalf("single-process empty read: %v", err)
	}
	err := mpi.NewWorld(2).Run(func(c *mpi.Comm) error {
		_, _, err := (&Loader{Comm: c}).Read(path)
		if err == nil {
			return fmt.Errorf("rank %d: expected empty-file error", c.Rank())
		}
		if !strings.Contains(err.Error(), "empty") {
			return fmt.Errorf("rank %d: %v", c.Rank(), err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestShardedTimelineEvents: a multi-rank cold read emits one
// load_shard span per rank; a warm read emits cache_hit spans.
func TestShardedTimelineEvents(t *testing.T) {
	path := writeFile(t, genCSV(46, 150, 6))
	cacheDir := t.TempDir()
	clockStart := time.Now()
	clock := func() float64 { return time.Since(clockStart).Seconds() }

	for round, wantEvent := range []string{"load_shard", "cache_hit"} {
		tl := trace.NewTimeline()
		err := mpi.NewWorld(2).Run(func(c *mpi.Comm) error {
			l := &Loader{Comm: c, Cache: true, CacheDir: cacheDir, DeferExchange: true, Timeline: tl, Clock: clock}
			_, _, err := l.Read(path)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		evs := tl.Filter(wantEvent)
		if len(evs) != 2 {
			t.Fatalf("round %d: want 2 %s events, got %d", round, wantEvent, len(evs))
		}
		seen := map[int]bool{}
		for _, e := range evs {
			seen[e.TID] = true
			if e.Cat != "io" {
				t.Errorf("%s event cat %q, want io", wantEvent, e.Cat)
			}
			if b, ok := e.Args["bytes"].(int64); ok && b <= 0 {
				t.Errorf("%s event bytes %d", wantEvent, b)
			}
		}
		if !seen[0] || !seen[1] {
			t.Errorf("round %d: %s events missing a rank: %v", round, wantEvent, seen)
		}
	}
}

// TestRegistryIncludesSharded: linking this package registers the
// engine, and the factory enables the cache by default.
func TestRegistryIncludesSharded(t *testing.T) {
	found := false
	for _, name := range csvio.Engines() {
		if name == EngineName {
			found = true
		}
	}
	if !found {
		t.Fatalf("registry %v does not include %q", csvio.Engines(), EngineName)
	}
	r, err := csvio.ByName(EngineName)
	if err != nil {
		t.Fatal(err)
	}
	dl, ok := r.(*Loader)
	if !ok {
		t.Fatalf("ByName(%q) returned %T", EngineName, r)
	}
	if !dl.Cache {
		t.Error("registry-built sharded loader should default to Cache on")
	}
}
