package main

import (
	"net/http"
	"testing"
)

// TestGETParamErrorsDeterministic is the regression test for GET
// parsers that looped over Go maps: with two malformed parameters the
// 400 named whichever the map yielded first. The ordered parameter list
// must name the same one every time.
func TestGETParamErrorsDeterministic(t *testing.T) {
	s := testServer(t)
	for _, tc := range []struct {
		name string
		h    http.HandlerFunc
		path string
		want string
	}{
		{"query", s.handleQuery, "/query", "bad reduce"},
		{"topk", s.handleTopK, "/topk", "bad reduce"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var first string
			for i := 0; i < 50; i++ {
				code, out := do(t, tc.h, http.MethodGet, tc.path+"?protein=ABCC8&reduce=x&planner=y", "")
				if code != http.StatusBadRequest {
					t.Fatalf("status %d, want 400", code)
				}
				msg, _ := out["error"].(string)
				if i == 0 {
					first = msg
					if len(msg) < len(tc.want) || msg[:len(tc.want)] != tc.want {
						t.Fatalf("error %q does not start with %q", msg, tc.want)
					}
				} else if msg != first {
					t.Fatalf("request %d: error %q, first was %q", i, msg, first)
				}
			}
		})
	}
}
