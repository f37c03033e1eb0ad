package checkpoint

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// seedFiles returns v2 snapshots as Save writes them at f64 and at
// f32, plus the two earlier formats Load must reject: v1 (gob payload
// + CRC footer, no header) and a bare gob.
func seedFiles(tb testing.TB) (v2f64, v2f32, v1, bare []byte) {
	tb.Helper()
	path := filepath.Join(tb.TempDir(), "seed.ckpt")
	save := func(s *Snapshot) []byte {
		if err := Save(path, s); err != nil {
			tb.Fatal(err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			tb.Fatal(err)
		}
		return raw
	}
	v2f64 = save(&Snapshot{
		Benchmark: "NT3", Epoch: 2, Step: 20, Loss: 0.5, DType: "f64",
		Weights: []float64{1.5, -2.25, 3},
		OptName: "adam", OptState: [][]float64{{1}, {0.1, 0.2, 0.3}, {0.01, 0.02, 0.03}},
	})
	v2f32 = save(&Snapshot{Benchmark: "P1B1", Epoch: 1, Step: 7, DType: "f32", Weights32: []float32{0.5, -1}})

	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&Snapshot{Benchmark: "NT3", Weights: []float64{1, 2}}); err != nil {
		tb.Fatal(err)
	}
	bare = buf.Bytes()
	v1 = append(append([]byte(nil), bare...), make([]byte, footerLen)...)
	binary.BigEndian.PutUint32(v1[len(bare):], crc32.ChecksumIEEE(bare))
	copy(v1[len(bare)+4:], magic)
	return v2f64, v2f32, v1, bare
}

// FuzzLoad feeds arbitrary bytes to Load, then flips one byte (at, by
// mask) of any input that loaded. Only sealed v2 files load, and the
// seal covers every byte, so Load must never panic, and the flipped
// copy must come back as an error wrapping ErrCorrupt. Before fuzzing
// it checks the same exhaustively on the seeds: every single-byte flip
// of each v2 seed is ErrCorrupt, and the v1 and bare seeds themselves
// are rejected as ErrCorrupt.
func FuzzLoad(f *testing.F) {
	v2f64, v2f32, v1, bare := seedFiles(f)
	path := filepath.Join(f.TempDir(), "seed.ckpt")
	load := func(tb testing.TB, path string, b []byte) error {
		if err := os.WriteFile(path, b, 0o644); err != nil {
			tb.Fatal(err)
		}
		_, err := Load(path)
		return err
	}
	for name, seed := range map[string][]byte{"v1": v1, "bare": bare} {
		if err := load(f, path, seed); !errors.Is(err, ErrCorrupt) {
			f.Fatalf("%s seed: Load = %v, want ErrCorrupt", name, err)
		}
	}
	for _, seed := range [][]byte{v2f64, v2f32} {
		for i := range seed {
			flipped := append([]byte(nil), seed...)
			flipped[i] ^= 0x01
			if err := load(f, path, flipped); !errors.Is(err, ErrCorrupt) {
				f.Fatalf("byte %d of a %d-byte seed flipped: Load = %v, want ErrCorrupt", i, len(seed), err)
			}
		}
	}

	for _, seed := range [][]byte{v2f64, v2f32, v1, bare} {
		f.Add(seed, uint32(0), byte(0))
		f.Add(seed, uint32(len(seed)/2), byte(0x01))
		f.Add(seed, uint32(len(seed)-5), byte(0x80))
	}
	f.Add(v2f64[:headerLen], uint32(0), byte(0xff))
	f.Add(v2f64[:len(v2f64)-1], uint32(3), byte(0x40))
	f.Add([]byte{}, uint32(0), byte(1))

	f.Fuzz(func(t *testing.T, data []byte, at uint32, mask byte) {
		path := filepath.Join(t.TempDir(), "fuzz.ckpt")
		if err := load(t, path, data); err != nil || mask == 0 || len(data) == 0 {
			return
		}
		i := int(at % uint32(len(data)))
		flipped := append([]byte(nil), data...)
		flipped[i] ^= mask
		if err := load(t, path, flipped); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("byte %d of a %d-byte loadable file flipped: Load = %v, want ErrCorrupt", i, len(data), err)
		}
	})
}
