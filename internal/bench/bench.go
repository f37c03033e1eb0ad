// Package bench is the shared schema for the repository's BENCH_*.json
// artifacts. Every harness historically emitted its own ad-hoc JSON
// document; this package fixes the envelope — a versioned schema tag, a
// prose description, the measurement environment, and a typed metrics
// payload — so tools (candle report, candle advise -from-bench, CI
// validators) can load any benchmark file, reject what they do not
// understand with a typed error, and decode the payload they do.
//
// Envelope (stable, versioned):
//
//	{
//	  "schema": "candle-bench/<kind>/v1",
//	  "description": "...",
//	  "environment": {"cpu": "...", "gomaxprocs": 1, "go": "go1.24.0", "date": "2026-08-09"},
//	  "regenerate": "make bench-<kind>",
//	  "metrics": { ... kind-specific payload ... }
//	}
//
// The first consumer is BENCH_e2e.json (kind "e2e", internal/e2ebench).
// The six older BENCH_*.json files (tensor, overlap, serve, load,
// transport, fleet) predate the envelope and can migrate kind by kind
// in later PRs: each writer wraps its existing payload as Metrics and
// picks its kind; readers switch from ad-hoc decoding to Load.
package bench

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"
)

// Family is the schema namespace shared by every benchmark kind.
const Family = "candle-bench"

// Version is the current envelope version. Bump it only for
// incompatible envelope changes; kind payloads evolve behind their own
// kind tag.
const Version = 1

// SchemaFor returns the full schema tag for a benchmark kind, e.g.
// "candle-bench/e2e/v1".
func SchemaFor(kind string) string {
	return fmt.Sprintf("%s/%s/v%d", Family, kind, Version)
}

// Environment records where a benchmark ran — enough to judge whether
// two files are comparable.
type Environment struct {
	CPU        string `json:"cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Date       string `json:"date"`
}

// Result is one benchmark artifact: the envelope plus an opaque
// metrics payload (decode it with DecodeMetrics).
type Result struct {
	Schema      string          `json:"schema"`
	Description string          `json:"description"`
	Environment Environment     `json:"environment"`
	Regenerate  string          `json:"regenerate,omitempty"`
	Metrics     json.RawMessage `json:"metrics"`
}

// New returns a Result for the given kind with the environment filled
// in from the current process and host.
func New(kind, description string) *Result {
	return &Result{
		Schema:      SchemaFor(kind),
		Description: description,
		Environment: Environment{
			CPU:        hostCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			Go:         runtime.Version(),
			Date:       time.Now().Format("2006-01-02"),
		},
	}
}

// Kind returns the kind component of the schema tag ("" if malformed).
func (r *Result) Kind() string {
	parts := strings.Split(r.Schema, "/")
	if len(parts) != 3 || parts[0] != Family {
		return ""
	}
	return parts[1]
}

// SetMetrics marshals v as the metrics payload.
func (r *Result) SetMetrics(v any) error {
	raw, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("bench: encoding metrics: %w", err)
	}
	r.Metrics = raw
	return nil
}

// DecodeMetrics unmarshals the metrics payload into v.
func (r *Result) DecodeMetrics(v any) error {
	if len(r.Metrics) == 0 {
		return fmt.Errorf("bench: result has no metrics payload")
	}
	if err := json.Unmarshal(r.Metrics, v); err != nil {
		return fmt.Errorf("bench: decoding metrics: %w", err)
	}
	return nil
}

// Write atomically writes the result as indented JSON at path
// (temp file + rename, so a crash never leaves a torn artifact).
func (r *Result) Write(path string) error {
	raw, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("bench: encoding %s: %w", path, err)
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(raw, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// ErrSchema is the sentinel all schema mismatches wrap;
// errors.Is(err, ErrSchema) detects them regardless of detail.
var ErrSchema = errors.New("bench: schema mismatch")

// SchemaError reports a file whose schema tag is missing or not the
// one the caller expects.
type SchemaError struct {
	Path string
	Got  string
	Want string
}

func (e *SchemaError) Error() string {
	if e.Got == "" {
		return fmt.Sprintf("bench: %s has no schema tag (want %s); pre-schema BENCH_*.json files need regenerating", e.Path, e.Want)
	}
	return fmt.Sprintf("bench: %s has schema %q, want %q", e.Path, e.Got, e.Want)
}

// Unwrap makes errors.Is(err, ErrSchema) true.
func (e *SchemaError) Unwrap() error { return ErrSchema }

// Load reads a benchmark artifact and validates its schema tag against
// the expected kind. A missing or mismatched tag yields a *SchemaError
// (wrapping ErrSchema).
func Load(path, kind string) (*Result, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Result
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("bench: parsing %s: %w", path, err)
	}
	if want := SchemaFor(kind); r.Schema != want {
		return nil, &SchemaError{Path: path, Got: r.Schema, Want: want}
	}
	return &r, nil
}

// hostCPU reads the host CPU model name, falling back to the
// architecture when /proc/cpuinfo is unavailable.
func hostCPU() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				if _, v, ok := strings.Cut(name, ":"); ok {
					return strings.TrimSpace(v)
				}
			}
		}
	}
	return runtime.GOARCH
}
