package checkpoint

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"testing"
)

func writeSnap(t *testing.T, dir string, epoch int) string {
	t.Helper()
	path := FileFor(dir, "NT3", epoch)
	s := &Snapshot{
		Benchmark: "NT3", Epoch: epoch, Step: epoch * 10,
		Weights: []float64{1.5, -2.25, float64(epoch)}, Loss: 0.5,
	}
	if err := Save(path, s); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestLoadDetectsBitFlip: a single flipped bit in the payload fails
// the CRC and surfaces as ErrCorrupt.
func TestLoadDetectsBitFlip(t *testing.T) {
	path := writeSnap(t, t.TempDir(), 0)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Load(path)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Load = %v, want ErrCorrupt", err)
	}
}

// TestLoadDetectsTruncation: a partially-written snapshot (lost its
// tail, footer and all) is rejected as corrupt rather than decoded
// into garbage weights.
func TestLoadDetectsTruncation(t *testing.T) {
	path := writeSnap(t, t.TempDir(), 0)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Load(path)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Load = %v, want ErrCorrupt", err)
	}
}

// TestLatestSkipsCorruptFallsBackToPreviousEpoch is the restore
// contract: when the newest checkpoint is damaged, Latest silently
// falls back to the previous good epoch.
func TestLatestSkipsCorruptFallsBackToPreviousEpoch(t *testing.T) {
	dir := t.TempDir()
	writeSnap(t, dir, 0)
	writeSnap(t, dir, 1)
	newest := writeSnap(t, dir, 2)
	raw, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	raw[3] ^= 0x40
	if err := os.WriteFile(newest, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Latest(dir, "NT3")
	if err != nil {
		t.Fatal(err)
	}
	if s.Epoch != 1 {
		t.Fatalf("Latest fell back to epoch %d, want 1", s.Epoch)
	}
}

// TestLatestAllCorruptReportsError: nothing loadable is an error, not
// a silent fresh start.
func TestLatestAllCorruptReportsError(t *testing.T) {
	dir := t.TempDir()
	path := writeSnap(t, dir, 0)
	if err := os.Truncate(path, 3); err != nil {
		t.Fatal(err)
	}
	_, err := Latest(dir, "NT3")
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Latest = %v, want ErrCorrupt", err)
	}
}

// TestLoadRetriesTransientIO: a read that fails transiently succeeds
// on a later bounded retry; the transient error never escapes.
func TestLoadRetriesTransientIO(t *testing.T) {
	path := writeSnap(t, t.TempDir(), 4)
	fails := 2
	orig, origBackoff := readFile, readBackoff
	readBackoff = 0
	readFile = func(p string) ([]byte, error) {
		if fails > 0 {
			fails--
			return nil, fmt.Errorf("transient: %s flaked", p)
		}
		return os.ReadFile(p)
	}
	defer func() { readFile, readBackoff = orig, origBackoff }()
	s, err := Load(path)
	if err != nil {
		t.Fatalf("Load did not absorb transient failures: %v", err)
	}
	if s.Epoch != 4 {
		t.Fatalf("epoch = %d", s.Epoch)
	}
	if fails != 0 {
		t.Fatalf("retry loop stopped early: %d scripted failures unused", fails)
	}
}

// TestLoadRetriesExhausted: a persistently failing read surfaces the
// underlying error after the bounded retries.
func TestLoadRetriesExhausted(t *testing.T) {
	sentinel := errors.New("disk on fire")
	orig, origBackoff := readFile, readBackoff
	readBackoff = 0
	readFile = func(string) ([]byte, error) { return nil, sentinel }
	defer func() { readFile, readBackoff = orig, origBackoff }()
	_, err := Load("whatever.ckpt")
	if !errors.Is(err, sentinel) {
		t.Fatalf("Load = %v, want persistent error", err)
	}
}

// TestLoadMissingNotRetried: absence is a real answer — ErrNotExist
// returns immediately without burning retries.
func TestLoadMissingNotRetried(t *testing.T) {
	calls := 0
	orig := readFile
	readFile = func(p string) ([]byte, error) {
		calls++
		return os.ReadFile(p)
	}
	defer func() { readFile = orig }()
	_, err := Load("/nonexistent/dir/x.ckpt")
	if !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("Load = %v, want ErrNotExist", err)
	}
	if calls != 1 {
		t.Fatalf("missing file read %d times, want 1", calls)
	}
}
