// Package checkpoint implements the checkpoint/restart feature the
// paper lists as future work ("We will add checkpoint/restart features
// to the Horovod benchmarks for fault tolerance"): periodic snapshots
// of a model's weights and training position, written atomically and
// sealed with a CRC32 footer, plus a training callback that saves from
// rank 0 and a Resume helper that restores a model to continue where
// it stopped. Restore paths verify integrity, skip damaged snapshots
// (falling back to the previous epoch), and retry transient I/O.
package checkpoint

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"candle/internal/nn"
	"candle/internal/tensor"
)

// Snapshot is one serialized training state.
type Snapshot struct {
	// Benchmark names the model the weights belong to.
	Benchmark string
	// Epoch is the last completed epoch (0-based).
	Epoch int
	// Step is the global optimizer step count at save time.
	Step int
	// Weights is the flat parameter vector (nn.WeightsVector order)
	// for f64 snapshots.
	Weights []float64
	// Loss is the epoch loss at save time, for bookkeeping.
	Loss float64
	// DType records the compute precision the model ran at: "f64",
	// "f32", or "" when unset (float64; Load fills it from the file
	// header). Snapshots
	// of f32 models store Weights32 instead of Weights, at half the
	// file size.
	DType string
	// Weights32 is the flat parameter vector for f32 snapshots.
	Weights32 []float32
	// OptName names the optimizer whose internal state OptState
	// carries (empty on snapshots saved without optimizer state —
	// including every pre-OptState file, which gob decodes with these
	// fields zero).
	OptName string
	// OptState is the optimizer's internal state in
	// nn.StatefulOptimizer capture order (momentum velocities, Adam
	// moments + step count, ...). Restoring it alongside the weights is
	// what makes a resumed run continue bit-identically instead of
	// silently resetting the optimizer.
	OptState [][]float64
}

// DTypeOrDefault resolves the snapshot's precision, mapping an unset
// DType to F64.
func (s *Snapshot) DTypeOrDefault() tensor.DType {
	dt, err := tensor.ParseDType(s.DType)
	if err != nil {
		return tensor.F64
	}
	return dt
}

// WeightsF64 returns the snapshot's weights widened to float64
// regardless of stored precision — the form SetWeightsVector takes.
func (s *Snapshot) WeightsF64() []float64 {
	if len(s.Weights) == 0 && len(s.Weights32) > 0 {
		out := make([]float64, len(s.Weights32))
		tensor.PromoteSlice(out, s.Weights32)
		return out
	}
	return s.Weights
}

// ErrNoCheckpoint is returned by Latest when the directory holds none.
var ErrNoCheckpoint = errors.New("checkpoint: none found")

// ErrCorrupt marks a snapshot whose integrity footer is missing data,
// whose checksum does not match, or whose payload will not decode —
// a bit flip, truncation, or partial write.
var ErrCorrupt = errors.New("checkpoint: corrupt snapshot")

// The snapshot file format (v2): an 8-byte header at the file start —
// the magic "CKV2", one dtype tag byte (0 = f64, 1 = f32), three
// reserved zero bytes — then the gob payload, then the 8-byte footer:
// the CRC32 of header+payload and the magic "CKV1". Earlier formats
// (v1: payload and footer with no header; a bare gob) do not load: a
// v1 file whose footer magic is damaged is indistinguishable from a
// bare gob and would load unverified.
const (
	footerLen = 8
	magic     = "CKV1"
	headerLen = 8
	magicV2   = "CKV2"
	tagF64    = byte(0)
	tagF32    = byte(1)
)

// readFile and the retry knobs are swappable so tests can script
// transient I/O failures without a real flaky filesystem.
var (
	readFile    = os.ReadFile
	readRetries = 3
	readBackoff = 5 * time.Millisecond
)

// Save writes a snapshot atomically (temp file + rename) to path in
// the v2 format: a dtype-tagged header, the gob payload, and a CRC32
// footer sealing both so restore can detect corruption.
func Save(path string, s *Snapshot) error {
	if s == nil {
		return errors.New("checkpoint: nil snapshot")
	}
	tag := tagF64
	switch s.DTypeOrDefault() {
	case tensor.F32:
		tag = tagF32
		if len(s.Weights32) == 0 && len(s.Weights) > 0 {
			return errors.New("checkpoint: f32 snapshot carries only f64 weights")
		}
	}
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	var buf bytes.Buffer
	var hdr [headerLen]byte
	copy(hdr[:4], magicV2)
	hdr[4] = tag
	buf.Write(hdr[:])
	if err := gob.NewEncoder(&buf).Encode(s); err != nil {
		return fmt.Errorf("checkpoint: encoding: %w", err)
	}
	var footer [footerLen]byte
	binary.BigEndian.PutUint32(footer[:4], crc32.ChecksumIEEE(buf.Bytes()))
	copy(footer[4:], magic)
	buf.Write(footer[:])

	tmp, err := os.CreateTemp(dir, ".ckpt-*")
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(buf.Bytes()); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("checkpoint: %w", err)
	}
	return nil
}

// readSnapshotBytes reads the file with bounded retry and backoff:
// transient I/O hiccups (the parallel-filesystem flakiness large HPC
// runs see) should not cost a restart its checkpoint. Missing files
// are not retried — absence is a real answer.
func readSnapshotBytes(path string) ([]byte, error) {
	var lastErr error
	for attempt := 0; attempt < readRetries; attempt++ {
		if attempt > 0 {
			time.Sleep(readBackoff << (attempt - 1))
		}
		raw, err := readFile(path)
		if err == nil {
			return raw, nil
		}
		if errors.Is(err, fs.ErrNotExist) {
			return nil, err
		}
		lastErr = err
	}
	return nil, lastErr
}

// Load reads a snapshot from path. Only the v2 format loads: a file
// without the v2 header and footer, with a checksum mismatch, or with
// an unknown dtype tag returns an error wrapping ErrCorrupt.
func Load(path string) (*Snapshot, error) {
	raw, err := readSnapshotBytes(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	if len(raw) < headerLen+footerLen || string(raw[:4]) != magicV2 || string(raw[len(raw)-4:]) != magic {
		return nil, fmt.Errorf("%w: %s: not a sealed v2 snapshot", ErrCorrupt, path)
	}
	body := raw[: len(raw)-footerLen : len(raw)-footerLen]
	want := binary.BigEndian.Uint32(raw[len(raw)-footerLen : len(raw)-4])
	if got := crc32.ChecksumIEEE(body); got != want {
		return nil, fmt.Errorf("%w: %s: crc %08x, footer says %08x", ErrCorrupt, path, got, want)
	}
	var headerDType string
	switch raw[4] {
	case tagF32:
		headerDType = "f32"
	case tagF64:
		headerDType = "f64"
	default:
		return nil, fmt.Errorf("%w: %s: unknown dtype tag %d", ErrCorrupt, path, raw[4])
	}
	var s Snapshot
	if err := gob.NewDecoder(bytes.NewReader(body[headerLen:])).Decode(&s); err != nil {
		return nil, fmt.Errorf("checkpoint: decoding %s: %w", path, err)
	}
	if s.DType == "" {
		s.DType = headerDType // a snapshot saved without a DType
	}
	return &s, nil
}

// FileFor names the checkpoint file for an epoch inside dir.
func FileFor(dir, benchmark string, epoch int) string {
	return filepath.Join(dir, fmt.Sprintf("%s-epoch%06d.ckpt", benchmark, epoch))
}

// Latest returns the newest loadable snapshot for the given benchmark
// in dir, skipping corrupt or truncated files so a damaged final
// checkpoint falls back to the previous epoch. It returns
// ErrNoCheckpoint when the directory holds none, or the newest file's
// error when every candidate is damaged.
func Latest(dir, benchmark string) (*Snapshot, error) {
	s, _, err := LatestWithSkips(dir, benchmark)
	return s, err
}

// LatestWithSkips is Latest plus a report of the damage it routed
// around: the load errors of every file newer than the snapshot it
// returned. A serving reload loop uses the skips to distinguish "the
// newest checkpoint is fine" from "the newest checkpoint is corrupt
// and I silently fell back an epoch" — the latter must surface on a
// health endpoint even though serving continues.
func LatestWithSkips(dir, benchmark string) (*Snapshot, []error, error) {
	pattern := filepath.Join(dir, benchmark+"-epoch*.ckpt")
	matches, err := filepath.Glob(pattern)
	if err != nil {
		return nil, nil, fmt.Errorf("checkpoint: %w", err)
	}
	if len(matches) == 0 {
		return nil, nil, ErrNoCheckpoint
	}
	// Order candidates by the epoch number parsed from the filename,
	// not by the raw string: zero-padding makes the two agree only up
	// to epoch 999999, after which "epoch1000000" sorts lexically
	// *before* "epoch999999" and string order would resurrect an old
	// snapshot forever. Name order breaks epoch ties (differently
	// padded names for the same epoch), newest-name-first, so the scan
	// stays deterministic; a damaged tie-winner still falls back to
	// its twin.
	sort.SliceStable(matches, func(i, j int) bool {
		ei, ej := epochOf(matches[i], benchmark), epochOf(matches[j], benchmark)
		if ei != ej {
			return ei < ej
		}
		return matches[i] < matches[j]
	})
	var skips []error
	for i := len(matches) - 1; i >= 0; i-- {
		s, err := Load(matches[i])
		if err == nil {
			return s, skips, nil
		}
		skips = append(skips, err)
	}
	return nil, skips, skips[0]
}

// epochOf parses the epoch number out of a checkpoint filename
// (bench-epochNNN.ckpt). Unparsable names sort oldest (-1) so they
// are only ever used as a last resort.
func epochOf(path, benchmark string) int {
	base := filepath.Base(path)
	num := strings.TrimSuffix(strings.TrimPrefix(base, benchmark+"-epoch"), ".ckpt")
	e, err := strconv.Atoi(num)
	if err != nil || e < 0 {
		return -1
	}
	return e
}

// Restore copies a snapshot's weights into a compiled model after
// verifying identity and size, promoting f32 snapshots into the f64
// master weights.
func Restore(m *nn.Sequential, s *Snapshot, benchmark string) error {
	if s.Benchmark != benchmark {
		return fmt.Errorf("checkpoint: snapshot is for %q, want %q", s.Benchmark, benchmark)
	}
	if err := m.SetWeightsVector(s.WeightsF64()); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	// Optimizer state is restored only when the live optimizer is the
	// same kind that saved it; anything else (an inference-only model
	// compiled with a placeholder optimizer, a pre-OptState snapshot)
	// keeps the fresh optimizer. Weight restore never depends on it.
	if len(s.OptState) > 0 {
		if so, ok := m.Optimizer().(nn.StatefulOptimizer); ok && so.Name() == s.OptName {
			if err := so.RestoreState(m.Params(), s.OptState); err != nil {
				return fmt.Errorf("checkpoint: optimizer state: %w", err)
			}
		}
	}
	return nil
}

// Callback saves a snapshot every Every epochs (and always on the
// final epoch end) when Rank is 0, mirroring how the Python benchmarks
// would checkpoint only from the coordinating rank.
type Callback struct {
	nn.BaseCallback
	Dir       string
	Benchmark string
	Every     int
	Rank      int

	// Saves counts snapshots written; Err holds the first write error
	// (training is not interrupted by checkpoint failures).
	Saves int
	Err   error
}

// NewCallback builds a checkpoint callback for rank 0 of a run.
func NewCallback(dir, benchmark string, every, rank int) *Callback {
	if every < 1 {
		every = 1
	}
	return &Callback{Dir: dir, Benchmark: benchmark, Every: every, Rank: rank}
}

// OnEpochEnd writes a snapshot on schedule.
func (c *Callback) OnEpochEnd(m *nn.Sequential, epoch int, loss float64) {
	if c.Rank != 0 || (epoch+1)%c.Every != 0 {
		return
	}
	s := &Snapshot{
		Benchmark: c.Benchmark,
		Epoch:     epoch,
		Step:      m.Steps(),
		Loss:      loss,
	}
	// Snapshots are written at the model's compute precision: an f32
	// model's checkpoints carry f32 weights at half the size (the
	// demotion loses nothing the f32 forward pass ever saw).
	if m.DType() == tensor.F32 {
		w := m.WeightsVector()
		s.DType = "f32"
		s.Weights32 = make([]float32, len(w))
		tensor.DemoteSlice(s.Weights32, w)
	} else {
		s.DType = "f64"
		s.Weights = m.WeightsVector()
	}
	// The optimizer's internal state rides along (always at f64 — it
	// is master-precision state even for f32 models), so Restore can
	// resume the exact trajectory instead of a fresh optimizer.
	if so, ok := m.Optimizer().(nn.StatefulOptimizer); ok {
		if st := so.CaptureState(m.Params()); len(st) > 0 {
			s.OptName = so.Name()
			s.OptState = st
		}
	}
	if err := Save(FileFor(c.Dir, c.Benchmark, epoch), s); err != nil && c.Err == nil {
		c.Err = err
		return
	}
	c.Saves++
}
