package serve

import (
	"net/http/httptest"
	"strconv"
	"testing"
	"time"
)

func TestRetryAfterSeconds(t *testing.T) {
	cases := []struct {
		depth int
		rate  float64
		want  int
	}{
		{0, 0, 1},    // idle server, no rate yet: minimum advice
		{5, 0, 30},   // backlog and nothing draining: the cap
		{0, 100, 1},  // fast drain: minimum
		{10, 5, 3},   // ceil(11/5)
		{99, 100, 1}, // sub-second drain rounds up to 1
		{1000, 10, 30} /* 100s, clamped */, {3, 1, 4},
	}
	for _, tc := range cases {
		if got := retryAfterSeconds(tc.depth, tc.rate); got != tc.want {
			t.Errorf("retryAfterSeconds(%d, %v) = %d, want %d", tc.depth, tc.rate, got, tc.want)
		}
	}
}

func TestDrainTrackerEWMA(t *testing.T) {
	var d drainTracker
	t0 := time.Unix(1000, 0)
	if rate := d.observe(t0, 0); rate != 0 {
		t.Fatalf("first sample should only set the baseline, got rate %v", rate)
	}
	// 50 completions over 100ms = 500/s; first real sample seeds the EWMA.
	if rate := d.observe(t0.Add(100*time.Millisecond), 50); rate != 500 {
		t.Fatalf("rate = %v, want 500", rate)
	}
	// A sample inside the spacing window reuses the estimate.
	if rate := d.observe(t0.Add(110*time.Millisecond), 55); rate != 500 {
		t.Fatalf("rate = %v, want previous 500 (sample too soon)", rate)
	}
	// 100 more completions over the next 200ms = 500/s inst; EWMA holds.
	if rate := d.observe(t0.Add(300*time.Millisecond), 150); rate != 500 {
		t.Fatalf("rate = %v, want 500", rate)
	}
	// Traffic stops: 0 inst halves the estimate, not zeroes it.
	if rate := d.observe(t0.Add(400*time.Millisecond), 150); rate != 250 {
		t.Fatalf("rate = %v, want 250 after one quiet window", rate)
	}
}

// TestHTTPRetryAfterHeader: backpressure statuses carry live advice,
// not the old fixed "1".
func TestHTTPRetryAfterHeader(t *testing.T) {
	dir := t.TempDir()
	writeCkpt(t, dir, 1, 42)
	s := newTestServer(t, testConfig(dir))

	for _, engineErr := range []error{ErrOverloaded, ErrDraining} {
		rec := httptest.NewRecorder()
		s.writeErr(rec, mapPredictErr(engineErr))
		raw := rec.Header().Get("Retry-After")
		secs, err := strconv.Atoi(raw)
		if err != nil || secs < 1 || secs > maxRetryAfterSeconds {
			t.Fatalf("%v: Retry-After = %q, want an integer in [1, %d]",
				engineErr, raw, maxRetryAfterSeconds)
		}
	}
	// Non-backpressure errors carry no advice.
	rec := httptest.NewRecorder()
	s.writeErr(rec, mapPredictErr(ErrBadWidth))
	if raw := rec.Header().Get("Retry-After"); raw != "" {
		t.Fatalf("422 carried Retry-After %q", raw)
	}
}
