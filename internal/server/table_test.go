// Results-table suite: the pending/finished states, the one-step
// publish, LRU retention of finished bodies only, and one end-to-end
// burst through the runEngine seam that must cost exactly one engine
// run. Test names start with TestResultCache so CI's server-e2e job
// (-race) runs them.
package server

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"

	"eds/internal/gen"
	"eds/internal/graph"
	"eds/internal/sim"
)

func TestResultCacheLRU(t *testing.T) {
	c := newResultTable(2)
	c.retain([]byte("A"), "a")
	c.retain([]byte("B"), "b")
	if _, ok := c.get("a"); !ok {
		t.Fatal("a evicted too early")
	}
	c.retain([]byte("C"), "c") // evicts b (a was just used)
	if _, ok := c.get("b"); ok {
		t.Error("b should have been evicted")
	}
	if v, ok := c.get("a"); !ok || string(v) != "A" {
		t.Error("a lost")
	}
	if v, ok := c.get("c"); !ok || string(v) != "C" {
		t.Error("c lost")
	}
	if c.len() != 2 {
		t.Errorf("len = %d, want 2", c.len())
	}
}

// TestResultCacheConcurrentFill hammers one LRU from many goroutines —
// concurrent peer fills and local runs insert into the same cache — and
// checks the two invariants that matter: size never exceeds capacity,
// and a surviving entry always carries the body it was inserted with.
// Run under -race in CI.
func TestResultCacheConcurrentFill(t *testing.T) {
	const (
		capacity = 8
		workers  = 16
		ops      = 400
		keySpace = 64
	)
	c := newResultTable(capacity)
	bodyFor := func(k int) []byte { return []byte(fmt.Sprintf("body-%d", k)) }

	stop := make(chan struct{})
	var watcher sync.WaitGroup
	watcher.Add(1)
	go func() { // samples the size invariant while the writers run
		defer watcher.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if n := c.len(); n > capacity {
				t.Errorf("cache grew to %d entries, capacity is %d", n, capacity)
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				k := (w*ops + i*7) % keySpace
				key := fmt.Sprintf("key-%d", k)
				if body, ok := c.get(key); ok && !bytes.Equal(body, bodyFor(k)) {
					t.Errorf("key %s returned %q, want %q", key, body, bodyFor(k))
					return
				}
				c.retain(bodyFor(k), key)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	watcher.Wait()

	if n := c.len(); n != capacity {
		t.Errorf("final size = %d, want the cache full at %d", n, capacity)
	}
}

// joinAs joins key and fails the test unless join assigned want.
func joinAs(t *testing.T, rt *resultTable, key string, want role) *entry {
	t.Helper()
	e, r := rt.join(key)
	if r != want {
		t.Fatalf("join(%q) role = %d, want %d", key, r, want)
	}
	return e
}

// closed reports whether e's followers have been woken.
func closed(e *entry) bool {
	select {
	case <-e.done:
		return true
	default:
		return false
	}
}

// TestResultCacheJoinAfterPublishHits pins the gap the one-step publish
// closes: a request that joins after the leader published a 200 is
// handed the finished body under either key, and nobody leads again.
func TestResultCacheJoinAfterPublishHits(t *testing.T) {
	rt := newResultTable(8)
	body := []byte("answer")
	lead := joinAs(t, rt, "canon", leader)
	follow := joinAs(t, rt, "canon", follower)
	if closed(follow) {
		t.Fatal("follower woken before the leader published")
	}
	if size := rt.publish(lead, outcome{code: http.StatusOK, body: body}, "raw"); size != 2 {
		t.Errorf("batch size = %d, want 2 (leader + follower)", size)
	}
	if !closed(follow) || follow.res.code != http.StatusOK || !bytes.Equal(follow.res.body, body) {
		t.Errorf("follower outcome = %+v, want the published 200", follow.res)
	}
	for _, key := range []string{"canon", "raw"} {
		if e := joinAs(t, rt, key, finished); !bytes.Equal(e.res.body, body) {
			t.Errorf("join(%q) body = %q, want %q", key, e.res.body, body)
		}
		if got, ok := rt.get(key); !ok || !bytes.Equal(got, body) {
			t.Errorf("get(%q) = %q, %v; want the published body", key, got, ok)
		}
	}
	if n := rt.len(); n != 2 {
		t.Errorf("len = %d, want 2 (canonical + raw)", n)
	}
}

// TestResultCachePrivateOutcomeDropsEntry: a private outcome (code 0)
// wakes the followers, retains nothing, and leaves the key free, so the
// next join leads a fresh run.
func TestResultCachePrivateOutcomeDropsEntry(t *testing.T) {
	rt := newResultTable(8)
	lead := joinAs(t, rt, "canon", leader)
	follow := joinAs(t, rt, "canon", follower)
	rt.publish(lead, outcome{}, "raw")
	if !closed(follow) || follow.res.code != 0 {
		t.Errorf("follower outcome = %+v, want the private retry marker", follow.res)
	}
	if next := joinAs(t, rt, "canon", leader); next == lead {
		t.Error("the new leader was handed the resolved entry")
	}
	if _, ok := rt.get("raw"); ok {
		t.Error("a private outcome was retained under the raw key")
	}
	if n := rt.len(); n != 0 {
		t.Errorf("len = %d, want 0", n)
	}
}

// TestResultCacheSharedFailureNotRetained: a deterministic 500 reaches
// every parked follower verbatim but is never served to a later join.
func TestResultCacheSharedFailureNotRetained(t *testing.T) {
	rt := newResultTable(8)
	lead := joinAs(t, rt, "canon", leader)
	var parked []*entry
	for i := 0; i < 3; i++ {
		parked = append(parked, joinAs(t, rt, "canon", follower))
	}
	fail := outcome{code: http.StatusInternalServerError, msg: "round limit exceeded"}
	if size := rt.publish(lead, fail, "raw"); size != 4 {
		t.Errorf("batch size = %d, want 4", size)
	}
	for i, e := range parked {
		if !closed(e) || e.res.code != fail.code || e.res.msg != fail.msg {
			t.Errorf("follower %d outcome = %+v, want %+v", i, e.res, fail)
		}
	}
	joinAs(t, rt, "canon", leader)
	if n := rt.len(); n != 0 {
		t.Errorf("len = %d, want 0: failures are not retained", n)
	}
}

// TestResultCacheDisabledStillCoalesces: with CacheEntries < 0 the table
// retains nothing — not a published run, not a fill — yet identical
// in-flight requests still share the leader's outcome.
func TestResultCacheDisabledStillCoalesces(t *testing.T) {
	rt := newResultTable(-1)
	body := []byte("answer")
	lead := joinAs(t, rt, "canon", leader)
	follow := joinAs(t, rt, "canon", follower)
	rt.publish(lead, outcome{code: http.StatusOK, body: body}, "raw")
	if !closed(follow) || !bytes.Equal(follow.res.body, body) {
		t.Errorf("follower outcome = %+v, want the published 200", follow.res)
	}
	rt.retain(body, "fill-canon", "fill-raw")
	for _, key := range []string{"canon", "raw", "fill-canon", "fill-raw"} {
		if _, ok := rt.get(key); ok {
			t.Errorf("get(%q) hit with retention disabled", key)
		}
	}
	joinAs(t, rt, "canon", leader)
	if n := rt.len(); n != 0 {
		t.Errorf("len = %d, want 0", n)
	}
}

// TestResultCacheEvictionSparesPending: LRU pressure evicts finished
// bodies only. A pending entry survives any number of retains — even one
// for its own key — and keeps its followers until its leader publishes.
func TestResultCacheEvictionSparesPending(t *testing.T) {
	const capacity = 2
	rt := newResultTable(capacity)
	lead := joinAs(t, rt, "pending", leader)
	for i := 0; i < 10; i++ {
		rt.retain([]byte(fmt.Sprintf("body-%d", i)), fmt.Sprintf("key-%d", i))
	}
	rt.retain([]byte("early"), "pending")
	if n := rt.len(); n != capacity {
		t.Errorf("len = %d, want %d", n, capacity)
	}
	if follow := joinAs(t, rt, "pending", follower); follow != lead {
		t.Fatal("join found a different entry for the pending key")
	}
	body := []byte("answer")
	rt.publish(lead, outcome{code: http.StatusOK, body: body}, "pending-raw")
	if got, ok := rt.get("pending"); !ok || !bytes.Equal(got, body) {
		t.Errorf("get(pending) = %q, %v; want the leader's body", got, ok)
	}
	if n := rt.len(); n != capacity {
		t.Errorf("len = %d after publish, want %d", n, capacity)
	}
}

// TestResultCacheBurstRunsOnce drives a burst of identical requests
// through the handler: one batch arrives while the leader's engine run
// is gated, another as the gate opens, so its requests reach the table
// around the publish — some after missing the probe a moment before it.
// Every request must be served from that one run: a miss for the
// leader, coalesced or hit for the rest.
func TestResultCacheBurstRunsOnce(t *testing.T) {
	s := New(Config{Workers: 4})
	var runs atomic.Int64
	gate := make(chan struct{})
	started := make(chan struct{}, 1)
	s.runEngine = func(ctx context.Context, g *graph.Graph, a sim.Algorithm) (*sim.Result, sim.Timings, error) {
		runs.Add(1)
		started <- struct{}{}
		<-gate
		return defaultRunEngine(ctx, g, a)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body := graphBytes(t, gen.Torus(6, 6))

	const burst = 8
	outcomes := make(chan string, 1+2*burst)
	var wg sync.WaitGroup
	post := func() {
		defer wg.Done()
		resp, out := postRun(t, ts.Client(), ts.URL, "", body)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("status %d (body %s)", resp.StatusCode, out)
		}
		outcomes <- resp.Header.Get("X-Cache")
	}
	wg.Add(1)
	go post()
	<-started
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go post()
	}
	waitForMisses(t, s, 1+burst)
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go post()
	}
	close(gate)
	wg.Wait()
	close(outcomes)

	count := map[string]int{}
	for xc := range outcomes {
		count[xc]++
	}
	if n := runs.Load(); n != 1 {
		t.Errorf("%d engine runs, want 1 (outcomes %v)", n, count)
	}
	if count["miss"] != 1 || count["miss"]+count["coalesced"]+count["hit"] != 1+2*burst {
		t.Errorf("X-Cache outcomes = %v, want one miss and the rest coalesced or hit", count)
	}
}
