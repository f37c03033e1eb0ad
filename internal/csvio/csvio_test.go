package csvio

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"candle/internal/tensor"
)

// writeTemp writes content to a temp file and returns its path.
func writeTemp(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "data.csv")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestAllReadersAgreeOnSimpleFile(t *testing.T) {
	path := writeTemp(t, "1,2.5,3\n4,5.5,6\n7,8.5,9\n")
	want := tensor.FromSlice(3, 3, []float64{1, 2.5, 3, 4, 5.5, 6, 7, 8.5, 9})
	for _, r := range Readers() {
		m, stats, err := r.Read(path)
		if err != nil {
			t.Fatalf("%s: %v", r.Name(), err)
		}
		if !m.AlmostEqual(want, 1e-12) {
			t.Fatalf("%s: got %v", r.Name(), m)
		}
		if stats.Rows != 3 || stats.Cols != 3 {
			t.Fatalf("%s: stats %+v", r.Name(), stats)
		}
	}
}

func TestReadersHandleCRLFAndTrailingNewlineVariants(t *testing.T) {
	for _, content := range []string{
		"1,2\r\n3,4\r\n",
		"1,2\n3,4", // no trailing newline
		"1,2\n\n3,4\n",
	} {
		path := writeTemp(t, content)
		want := tensor.FromSlice(2, 2, []float64{1, 2, 3, 4})
		for _, r := range Readers() {
			m, _, err := r.Read(path)
			if err != nil {
				t.Fatalf("%s on %q: %v", r.Name(), content, err)
			}
			if !m.AlmostEqual(want, 1e-12) {
				t.Fatalf("%s on %q: got %v", r.Name(), content, m)
			}
		}
	}
}

func TestReadersRejectRaggedRows(t *testing.T) {
	path := writeTemp(t, "1,2,3\n4,5\n")
	for _, r := range Readers() {
		if _, _, err := r.Read(path); err == nil {
			t.Fatalf("%s accepted ragged rows", r.Name())
		}
	}
}

func TestReadersRejectGarbageCells(t *testing.T) {
	path := writeTemp(t, "1,banana\n")
	for _, r := range Readers() {
		if _, _, err := r.Read(path); err == nil {
			t.Fatalf("%s accepted garbage", r.Name())
		}
	}
}

func TestReadersRejectEmptyFile(t *testing.T) {
	path := writeTemp(t, "")
	for _, r := range Readers() {
		if _, _, err := r.Read(path); err == nil {
			t.Fatalf("%s accepted empty file", r.Name())
		}
	}
}

func TestReadersMissingFile(t *testing.T) {
	for _, r := range Readers() {
		if _, _, err := r.Read("/nonexistent/nope.csv"); err == nil {
			t.Fatalf("%s read a missing file", r.Name())
		}
	}
}

func TestChunkBoundarySpanningLines(t *testing.T) {
	// Force tiny chunks so lines straddle chunk boundaries.
	var sb strings.Builder
	want := tensor.New(50, 7)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		for j := 0; j < 7; j++ {
			v := math.Floor(rng.Float64()*1e6) / 1000
			want.Set(i, j, v)
			if j > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(trimFloat(v))
		}
		sb.WriteByte('\n')
	}
	path := writeTemp(t, sb.String())
	readers := []Reader{
		&NaiveReader{InternalChunkBytes: 16},
		&ChunkedReader{ChunkBytes: 16},
		&ParallelReader{Workers: 7},
	}
	for _, r := range readers {
		m, _, err := r.Read(path)
		if err != nil {
			t.Fatalf("%s: %v", r.Name(), err)
		}
		if !m.AlmostEqual(want, 1e-9) {
			t.Fatalf("%s: mismatch with tiny chunks", r.Name())
		}
	}
}

func trimFloat(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func TestWriteCSVReadBack(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	m := tensor.New(20, 15)
	for i := range m.Data {
		switch i % 3 {
		case 0:
			m.Data[i] = float64(rng.Intn(100)) // integral like labels
		case 1:
			m.Data[i] = rng.NormFloat64() * 1e3
		default:
			m.Data[i] = rng.Float64() * 1e-5
		}
	}
	path := filepath.Join(t.TempDir(), "rt.csv")
	if err := WriteCSV(path, m); err != nil {
		t.Fatal(err)
	}
	for _, r := range Readers() {
		got, _, err := r.Read(path)
		if err != nil {
			t.Fatalf("%s: %v", r.Name(), err)
		}
		if !got.AlmostEqual(m, 1e-12) {
			t.Fatalf("%s: round trip mismatch", r.Name())
		}
	}
}

func TestParseFloatBytesAgainstStrconv(t *testing.T) {
	cases := []string{
		"0", "1", "-1", "+3", "3.14159", "-2.5e3", "1e-8", "1E+4",
		"0.0001", "123456789.123456", "9007199254740991",
		"1e300", "-1e-300", "2.2250738585072014e-308",
		"0.1", "999999999999999999999", "1.7976931348623157e308",
	}
	for _, s := range cases {
		got, err := parseFloatBytes([]byte(s))
		if err != nil {
			t.Fatalf("parseFloatBytes(%q): %v", s, err)
		}
		want, _ := strconv.ParseFloat(s, 64)
		if got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Fatalf("parseFloatBytes(%q) = %v, strconv = %v", s, got, want)
		}
	}
	for _, bad := range []string{"", "-", ".", "e5", "1e", "1e+", "abc", "1.2.3", "--1"} {
		if _, err := parseFloatBytes([]byte(bad)); err == nil {
			t.Fatalf("parseFloatBytes(%q) accepted", bad)
		}
	}
}

// Property: the fast scanner agrees with strconv on random values in
// multiple formattings.
func TestQuickParseFloatAgreesWithStrconv(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		v := rng.NormFloat64() * pow10(rng.Intn(41)-20)
		for _, s := range []string{
			strconv.FormatFloat(v, 'g', -1, 64), strconv.FormatFloat(v, 'f', 6, 64),
			strconv.FormatFloat(v, 'e', 10, 64), strconv.FormatFloat(v, 'g', 4, 64),
		} {
			got, err := parseFloatBytes([]byte(s))
			if err != nil {
				return false
			}
			want, _ := strconv.ParseFloat(s, 64)
			if math.Abs(got-want) > math.Abs(want)*1e-15 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestNaiveReaderCountsChunksAndStats(t *testing.T) {
	var sb strings.Builder
	for i := 0; i < 100; i++ {
		sb.WriteString("1,2.5,3.25\n")
	}
	path := writeTemp(t, sb.String())
	r := &NaiveReader{InternalChunkBytes: 64}
	_, stats, err := r.Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Chunks < 10 {
		t.Fatalf("expected many small chunks, got %d", stats.Chunks)
	}
	if stats.BytesRead == 0 || stats.Seconds < 0 {
		t.Fatalf("stats not populated: %+v", stats)
	}
}

// TestChunkedFasterThanNaiveOnWideFile pins the mechanism behind the
// paper's loader win on wide files: the naive reader models pandas'
// low_memory=True (small internal chunks, column types inferred per
// chunk, a reconciliation pass when a column's type flips between
// chunks), the chunked reader low_memory=False (one typed pass). How
// much faster that is, is the benchmark's to measure (csvio.*.read_s).
func TestChunkedFasterThanNaiveOnWideFile(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := tensor.New(48, 4000)
	for i := range m.Data {
		m.Data[i] = rng.Float64() * 10
	}
	// Column 0 holds integers in the first half of the rows and floats
	// in the second, so its type flips between two internal chunks.
	for i := 0; i < m.Rows/2; i++ {
		m.Set(i, 0, float64(rng.Intn(100)))
	}
	path := filepath.Join(t.TempDir(), "wide.csv")
	if err := WriteCSV(path, m); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	naive, ns, err := NewNaiveReader().Read(path)
	if err != nil {
		t.Fatal(err)
	}
	chunked, cs, err := NewChunkedReader().Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if !chunked.AlmostEqual(naive, 1e-12) {
		t.Fatal("chunked and naive readers disagree on the wide file")
	}
	if ns.BytesRead != fi.Size() || cs.BytesRead != fi.Size() {
		t.Fatalf("bytes read: naive %d, chunked %d, file %d", ns.BytesRead, cs.BytesRead, fi.Size())
	}
	if cs.Chunks != 1 || cs.InferencePasses != 0 {
		t.Fatalf("chunked reader: %d chunks, %d inference passes; want 1 and 0", cs.Chunks, cs.InferencePasses)
	}
	if perChunk := int(fi.Size() / (256 << 10)); ns.Chunks < perChunk || ns.InferencePasses == 0 {
		t.Fatalf("naive reader: %d chunks (want >= %d, one per 256 KiB), %d inference passes (want > 0)",
			ns.Chunks, perChunk, ns.InferencePasses)
	}
}

func BenchmarkNaiveReaderWide(b *testing.B)    { benchReader(b, NewNaiveReader()) }
func BenchmarkChunkedReaderWide(b *testing.B)  { benchReader(b, NewChunkedReader()) }
func BenchmarkParallelReaderWide(b *testing.B) { benchReader(b, NewParallelReader(0)) }

func benchReader(b *testing.B, r Reader) {
	rng := rand.New(rand.NewSource(7))
	m := tensor.New(32, 2000)
	for i := range m.Data {
		m.Data[i] = rng.Float64() * 10
	}
	path := filepath.Join(b.TempDir(), "wide.csv")
	if err := WriteCSV(path, m); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := r.Read(path); err != nil {
			b.Fatal(err)
		}
	}
}

func TestNaiveReaderInferencePassOnTypeFlip(t *testing.T) {
	// A column that looks integer in one internal chunk and float in
	// the next forces the pandas-style dtype reconciliation pass.
	var sb strings.Builder
	for i := 0; i < 40; i++ {
		sb.WriteString("7,1\n") // int column
	}
	for i := 0; i < 40; i++ {
		sb.WriteString("7.5,1\n") // same column now float
	}
	path := writeTemp(t, sb.String())
	r := &NaiveReader{InternalChunkBytes: 64}
	_, stats, err := r.Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if stats.InferencePasses == 0 {
		t.Fatal("type flip did not trigger a reconciliation pass")
	}
	// A homogeneous file triggers none.
	var sb2 strings.Builder
	for i := 0; i < 80; i++ {
		sb2.WriteString("7.5,1.25\n")
	}
	path2 := writeTemp(t, sb2.String())
	_, stats2, err := r.Read(path2)
	if err != nil {
		t.Fatal(err)
	}
	if stats2.InferencePasses != 0 {
		t.Fatalf("homogeneous file triggered %d passes", stats2.InferencePasses)
	}
}
