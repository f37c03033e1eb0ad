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

// seedFiles returns one snapshot in each on-disk generation Load reads:
// v2 as Save writes it at f64 and at f32, v1 (gob payload + CRC
// footer), and a bare legacy gob.
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
// mask) of any input that loaded from a sealed file. Load must never
// panic, and the flipped copy must come back as an error wrapping
// ErrCorrupt when the byte lies anywhere in a v2 file, or in a v1
// file's payload or CRC. A v1 file's magic is outside its seal: with
// the magic damaged the file reads as a bare gob, gob stops decoding
// at the end of the value, and the intact payload loads unreported.
func FuzzLoad(f *testing.F) {
	v2f64, v2f32, v1, bare := seedFiles(f)
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
		load := func(b []byte) error {
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := Load(path)
			return err
		}
		if err := load(data); err != nil || mask == 0 {
			return
		}
		sealed := 0
		switch {
		case len(data) >= headerLen && string(data[:4]) == magicV2:
			sealed = len(data)
		case len(data) >= footerLen && string(data[len(data)-4:]) == magic:
			sealed = len(data) - 4
		}
		if sealed == 0 {
			return // a bare gob: nothing seals it
		}
		i := int(at % uint32(sealed))
		flipped := append([]byte(nil), data...)
		flipped[i] ^= mask
		if err := load(flipped); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("byte %d of a %d-byte sealed file flipped: Load = %v, want ErrCorrupt", i, len(data), err)
		}
	})
}
