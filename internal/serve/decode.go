package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
)

// The /predict request decoder. It is deliberately strict — unknown
// fields, trailing garbage, wrong feature counts, and non-finite
// values are all typed 4xx errors — and deliberately total: no input
// may panic it (the fuzz test holds it to that).

// apiError is a typed HTTP-mappable error. Code is a stable
// machine-readable slug; Msg is for humans.
type apiError struct {
	Status int    `json:"-"`
	Code   string `json:"code"`
	Msg    string `json:"error"`
}

func (e *apiError) Error() string { return fmt.Sprintf("%s: %s", e.Code, e.Msg) }

func badRequest(code, msg string, args ...any) *apiError {
	return &apiError{Status: http.StatusBadRequest, Code: code, Msg: fmt.Sprintf(msg, args...)}
}

func unprocessable(code, msg string, args ...any) *apiError {
	return &apiError{Status: http.StatusUnprocessableEntity, Code: code, Msg: fmt.Sprintf(msg, args...)}
}

// predictRequest is the wire shape of POST /predict.
type predictRequest struct {
	Features []float64 `json:"features"`
}

// decodePredict parses and validates a /predict body against the
// model's input width. It never panics; every failure is a 4xx
// apiError.
func decodePredict(body []byte, want int) ([]float64, *apiError) {
	if len(bytes.TrimSpace(body)) == 0 {
		return nil, badRequest("empty_body", "request body is empty; send {\"features\": [...]}")
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var req predictRequest
	if err := dec.Decode(&req); err != nil {
		return nil, badRequest("bad_json", "decoding request: %v", err)
	}
	// Reject trailing non-space garbage ({"features":[1]}{"x":2}).
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return nil, badRequest("bad_json", "trailing data after JSON object")
	}
	if req.Features == nil {
		return nil, badRequest("missing_features", "request has no \"features\" array")
	}
	if len(req.Features) != want {
		return nil, unprocessable("feature_count",
			"got %d features, model wants %d", len(req.Features), want)
	}
	for i, v := range req.Features {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, unprocessable("nonfinite_feature",
				"feature %d is not finite", i)
		}
	}
	return req.Features, nil
}
