package serve

import (
	"math"
	"testing"
)

// FuzzDecodePredict holds the /predict decoder to its contract: for
// ANY byte string it either returns a validated feature row of the
// right width with only finite values, or a typed 4xx apiError — and
// it never panics. Run longer with:
//
//	go test -fuzz FuzzDecodePredict ./internal/serve
func FuzzDecodePredict(f *testing.F) {
	seeds := []string{
		``,
		`{}`,
		`{"features":[1,2,3,4]}`,
		`{"features":[1,2]}`,
		`{"features":[]}`,
		`{"features":null}`,
		`{"features":[1e999,0,0,0]}`,
		`{"features":["NaN",1,2,3]}`,
		`{"features":[1,2,3,4],"extra":true}`,
		`{"features":[1,2,3,4]}{"features":[5,6,7,8]}`,
		`{"features":[1,2,3,4],"priority":"high"}`,
		`{"features":[1,2,3,4],"priority":"urgent"}`,
		`{"features":[1,2,3,4],"priority":""}`,
		`[1,2,3,4]`,
		`"features"`,
		`{"features":{"0":1}}`,
		`{"features`,
		"\x00\xff\xfe",
		`{"features":[-0.5,1e-300,2.25,3]}`,
		// Bodies the fleet router forwards unread, so this decoder is
		// the one that must refuse them: routing hints it does not
		// know, a short row, a non-array, a trailing object.
		`{"features":[1,2,3]}`,
		`{"features":[1],"session":"abc"}`,
		`{"features":[1],"priority":"high"}`,
		`{"features":[1],"priority":"urgent"}`,
		`{"session":42}`,
		`{"features":"nope"}`,
		`[1,2,3]`,
		`{"features":[1]}{"features":[2]}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	const want = 4
	f.Fuzz(func(t *testing.T, data []byte) {
		features, aerr := decodePredict(data, want) // must not panic
		if aerr != nil {
			if aerr.Status < 400 || aerr.Status > 499 {
				t.Fatalf("decoder error status %d outside 4xx: %v", aerr.Status, aerr)
			}
			if aerr.Code == "" || aerr.Msg == "" {
				t.Fatalf("decoder error missing code/message: %+v", aerr)
			}
			return
		}
		if len(features) != want {
			t.Fatalf("accepted %d features, want exactly %d", len(features), want)
		}
		for i, v := range features {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("accepted non-finite feature %d: %v", i, v)
			}
		}
	})
}

// FuzzDecodeGeneration holds the /reload/commit body decoder to the
// same contract: typed 4xx or success, never a panic.
func FuzzDecodeGeneration(f *testing.F) {
	seeds := []string{
		``,
		`{}`,
		`{"epoch":3,"step":100}`,
		`{"epoch":3}`,
		`{"epoch":-1,"step":1e99}`,
		`{"epoch":3,"step":100,"extra":1}`,
		`{"epoch":3,"step":100}{}`,
		`[3,100]`,
		`{"epoch"`,
		"\x00\xff",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		_, aerr := decodeGeneration(data) // must not panic
		if aerr != nil {
			if aerr.Status < 400 || aerr.Status > 499 {
				t.Fatalf("decoder error status %d outside 4xx: %v", aerr.Status, aerr)
			}
			if aerr.Code == "" || aerr.Msg == "" {
				t.Fatalf("decoder error missing code/message: %+v", aerr)
			}
		}
	})
}
