//go:build !race

package server

import (
	"bytes"
	"net/http/httptest"
	"runtime/debug"
	"testing"

	"eds/internal/gen"
)

// TestCachedReplayAllocationBudget bounds the per-request allocation
// cost of a cached /v1/run replay. A hit never touches an engine, the
// admission queue, or the response builder; what remains is the HTTP
// plumbing, the body read, the graph decode (flat CSR arrays — a
// handful of allocations regardless of size), and the canonical
// re-serialisation for the key. The budget is deliberately far below
// what a single engine run on this graph would allocate (one node per
// vertex alone would be 2000 allocations), so a regression that sneaks
// the engine back onto the hit path fails loudly.
func TestCachedReplayAllocationBudget(t *testing.T) {
	old := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(old)

	s := New(Config{})
	h := s.Handler()
	body := graphBytes(t, gen.Cycle(2000))

	do := func() (code int, cache string) {
		req := httptest.NewRequest("POST", "/v1/run?alg=auto", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec.Code, rec.Header().Get("X-Cache")
	}
	if code, _ := do(); code != 200 {
		t.Fatalf("priming request: status %d", code)
	}

	var code int
	var cache string
	allocs := testing.AllocsPerRun(20, func() {
		code, cache = do()
	})
	if code != 200 || cache != "hit" {
		t.Fatalf("replay: status %d, X-Cache %q, want 200/hit", code, cache)
	}
	const budget = 512
	if allocs > budget {
		t.Errorf("cached replay allocates %.0f objects per request, budget %d", allocs, budget)
	}
}
