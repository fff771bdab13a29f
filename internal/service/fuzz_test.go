package service

import (
	"strings"
	"testing"
)

// FuzzDecodeSubmit drives arbitrary bytes through the POST /v1/jobs
// decoder. Every input must either fail with an error or yield a Spec that
// passes Validate with its explore sizes inside the submit bounds and
// flow params the harden flow accepts; none may panic.
func FuzzDecodeSubmit(f *testing.F) {
	for _, body := range []string{
		`{"kind":"harden","benchmark":"PRESENT"}`,
		`{"kind":"attack","benchmark":"PRESENT"}`,
		`{"kind":"frobnicate","benchmark":"PRESENT"}`,
		`{"kind":"harden","benchmark":"PRESENT","bogus_field":1}`,
		`{"kind":"harden","benchmark":"PRESENT","params":{"op":"LDA","lda_grid_n":8,"lda_iters":2,"scale_m":[1.2,1,1]}}`,
		`{"kind":"harden","benchmark":"PRESENT","params":{"op":"XX"}}`,
		`{"kind":"harden","benchmark":"PRESENT","params":{"scale_m":[1.2]}}`,
		`{"kind":"harden","benchmark":"PRESENT","params":{"op":"LDA","lda_grid_n":7,"lda_iters":4}}`,
		`{"kind":"attack","benchmark":"PRESENT","params":{"scale_m":[1.5,1.5,1.5,1.5]}}`,
		`{"kind":"harden","def":"VERSION 5.8 ;\nEND DESIGN\n","clock_ps":500,"assets":["key_reg_0"]}`,
		`{"kind":"explore","benchmark":"PRESENT","explore":{"pop_size":6,"generations":8,"parallelism":1,"seed":42}}`,
		`{"kind":"explore","benchmark":"PRESENT","explore":{"parallelism":100000000}}`,
		`{"kind":"explore","benchmark":"PRESENT","explore":{"pop_size":4,"islands":2}}`,
		`{"kind":"harden","benchmark":"PRESENT","timeout_sec":1e300}`,
		`{"kind":"harden","benchmark":"PRESENT","timeout_sec":-1}`,
		`{"kind":"harden","benchmark":"PRESENT"} {"kind":"attack"}`,
		``,
		`null`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		spec, err := decodeSubmit(strings.NewReader(string(body)))
		if err != nil {
			if !strings.HasPrefix(err.Error(), "service: ") {
				t.Fatalf("error %q lacks the service: prefix", err)
			}
			return
		}
		if err := spec.Validate(); err != nil {
			t.Fatalf("decoded spec fails Validate: %v", err)
		}
		ex := spec.Explore
		if ex.PopSize < 0 || ex.PopSize > maxPopSize ||
			ex.Generations < 0 || ex.Generations > maxGenerations ||
			ex.Parallelism < 0 || ex.Parallelism > maxParallelism {
			t.Fatalf("decoded explore sizes out of bounds: %+v", ex)
		}
		if err := spec.Params.Validate(); err != nil {
			t.Fatalf("decoded params %+v fail the flow's check: %v", spec.Params, err)
		}
		if spec.Timeout < 0 {
			t.Fatalf("decoded negative timeout %v", spec.Timeout)
		}
	})
}
