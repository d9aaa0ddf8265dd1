// Gated benchmarks for the request batcher: the results-table
// bookkeeping that every /v1/run miss crosses, and a whole batched run
// through the handler stack. Their allocs/op live in
// BENCH_baseline.json and are enforced by cmd/edsbench in CI — the
// batcher must not quietly start allocating per follower.
package server

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"eds/internal/gen"
)

// BenchmarkFlightJoinFinish is the batcher's bookkeeping in isolation,
// on a table that retains nothing (CacheEntries: -1): one leader and
// seven followers joining one pending entry, the leader publishing,
// every follower reading the shared outcome. Joins are serialized so the
// measurement is deterministic — the per-op allocations are the entry
// and its done channel, both independent of the batch size.
func BenchmarkFlightJoinFinish(b *testing.B) {
	rt := newResultTable(-1)
	const followers = 7
	body := []byte(`{"ok":true}`)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, r := rt.join("bench-key", "bench-raw")
		if r != leader {
			b.Fatal("stale entry left behind by a previous iteration")
		}
		var joined [followers]*entry
		for j := range joined {
			ff, r := rt.join("bench-key", "bench-raw")
			if r != follower {
				b.Fatal("join did not follow the pending entry")
			}
			joined[j] = ff
		}
		if size := rt.publish(e, outcome{code: http.StatusOK, body: body}); size != followers+1 {
			b.Fatalf("batch size = %d, want %d", size, followers+1)
		}
		for _, ff := range joined {
			<-ff.done
			if ff.res.code != http.StatusOK {
				b.Fatal("follower read the wrong outcome")
			}
		}
	}
}

// BenchmarkBatchedRun pushes four identical concurrent requests through
// the full handler stack — middleware, parse, batch window, one engine
// run, response fan-out — with the cache disabled so every iteration
// batches instead of replaying. allocs/op is the cost of one batched
// engine run plus four served requests.
func BenchmarkBatchedRun(b *testing.B) {
	s := New(Config{Workers: 4, CacheEntries: -1, BatchWindow: 2 * time.Millisecond})
	body := graphBytes(b, gen.Cycle(16))
	const clients = 4
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for j := 0; j < clients; j++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				req := httptest.NewRequest(http.MethodPost, "/v1/run", strings.NewReader(string(body)))
				rec := httptest.NewRecorder()
				s.Handler().ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					b.Errorf("status = %d", rec.Code)
				}
			}()
		}
		wg.Wait()
	}
}
