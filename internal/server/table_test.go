// Results-table suite: the pending/finished states, the one-step
// publish, LRU retention of finished answers only, raw-body aliases that
// take no LRU slot and never outlive their entry, and one end-to-end
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

// put resolves key with body the way a request does: it joins under the
// alias "raw-"+key and, if it leads, publishes a 200. It returns the
// role join assigned.
func put(rt *resultTable, key string, body []byte) role {
	e, r := rt.join(key, "raw-"+key)
	if r == leader {
		rt.publish(e, outcome{code: http.StatusOK, body: body})
	}
	return r
}

func TestResultCacheLRU(t *testing.T) {
	c := newResultTable(2)
	put(c, "a", []byte("A"))
	put(c, "b", []byte("B"))
	if _, ok := c.get("a"); !ok {
		t.Fatal("a evicted too early")
	}
	put(c, "c", []byte("C")) // evicts b (a was just used)
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

// TestResultCacheConcurrentFill hammers one table from many goroutines —
// concurrent peer fills and local runs resolve entries in the same
// table — and checks the two invariants that matter: size never exceeds
// capacity, and a surviving entry always carries the body it was
// published with. Run under -race in CI.
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
				for _, probe := range []string{key, "raw-" + key} {
					if body, ok := c.get(probe); ok && !bytes.Equal(body, bodyFor(k)) {
						t.Errorf("key %s returned %q, want %q", probe, body, bodyFor(k))
						return
					}
				}
				put(c, key, bodyFor(k))
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

// joinAs joins key under alias and fails the test unless join assigned
// want.
func joinAs(t *testing.T, rt *resultTable, key, alias string, want role) *entry {
	t.Helper()
	e, r := rt.join(key, alias)
	if r != want {
		t.Fatalf("join(%q, %q) role = %d, want %d", key, alias, r, want)
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

// aliasCount returns how many alias slots of e are in use.
func aliasCount(rt *resultTable, e *entry) int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	n := 0
	for _, a := range e.aliases {
		if a != "" {
			n++
		}
	}
	return n
}

// TestResultCacheJoinAfterPublishHits pins the gap the one-step publish
// closes: a request that joins after the leader published a 200 is
// handed the finished body under either key, and nobody leads again.
func TestResultCacheJoinAfterPublishHits(t *testing.T) {
	rt := newResultTable(8)
	body := []byte("answer")
	lead := joinAs(t, rt, "canon", "raw", leader)
	follow := joinAs(t, rt, "canon", "raw", follower)
	if closed(follow) {
		t.Fatal("follower woken before the leader published")
	}
	if size := rt.publish(lead, outcome{code: http.StatusOK, body: body}); size != 2 {
		t.Errorf("batch size = %d, want 2 (leader + follower)", size)
	}
	if !closed(follow) || follow.res.code != http.StatusOK || !bytes.Equal(follow.res.body, body) {
		t.Errorf("follower outcome = %+v, want the published 200", follow.res)
	}
	for _, key := range []string{"canon", "raw"} {
		if e := joinAs(t, rt, key, "raw", finished); !bytes.Equal(e.res.body, body) {
			t.Errorf("join(%q) body = %q, want %q", key, e.res.body, body)
		}
		if got, ok := rt.get(key); !ok || !bytes.Equal(got, body) {
			t.Errorf("get(%q) = %q, %v; want the published body", key, got, ok)
		}
	}
	if n := rt.len(); n != 1 {
		t.Errorf("len = %d, want 1 (one answer; its raw alias takes no slot)", n)
	}
}

// TestResultCachePrivateOutcomeDropsEntry: a private outcome (code 0)
// wakes the followers, retains nothing, and leaves the key free, so the
// next join leads a fresh run.
func TestResultCachePrivateOutcomeDropsEntry(t *testing.T) {
	rt := newResultTable(8)
	lead := joinAs(t, rt, "canon", "raw", leader)
	follow := joinAs(t, rt, "canon", "raw", follower)
	rt.publish(lead, outcome{})
	if !closed(follow) || follow.res.code != 0 {
		t.Errorf("follower outcome = %+v, want the private retry marker", follow.res)
	}
	if next := joinAs(t, rt, "canon", "raw", leader); next == lead {
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
	lead := joinAs(t, rt, "canon", "raw", leader)
	var parked []*entry
	for i := 0; i < 3; i++ {
		parked = append(parked, joinAs(t, rt, "canon", "raw", follower))
	}
	fail := outcome{code: http.StatusInternalServerError, msg: "round limit exceeded"}
	if size := rt.publish(lead, fail); size != 4 {
		t.Errorf("batch size = %d, want 4", size)
	}
	for i, e := range parked {
		if !closed(e) || e.res.code != fail.code || e.res.msg != fail.msg {
			t.Errorf("follower %d outcome = %+v, want %+v", i, e.res, fail)
		}
	}
	joinAs(t, rt, "canon", "raw", leader)
	if n := rt.len(); n != 0 {
		t.Errorf("len = %d, want 0: failures are not retained", n)
	}
}

// TestResultCacheDisabledStillCoalesces: with CacheEntries < 0 the table
// retains nothing — not a published run, not a fill — and records no
// alias, yet identical in-flight requests still share the leader's
// outcome.
func TestResultCacheDisabledStillCoalesces(t *testing.T) {
	rt := newResultTable(-1)
	body := []byte("answer")
	lead := joinAs(t, rt, "canon", "raw", leader)
	follow := joinAs(t, rt, "canon", "raw", follower)
	rt.publish(lead, outcome{code: http.StatusOK, body: body})
	if !closed(follow) || !bytes.Equal(follow.res.body, body) {
		t.Errorf("follower outcome = %+v, want the published 200", follow.res)
	}
	fill := joinAs(t, rt, "fill-canon", "fill-raw", leader)
	if n := aliasCount(rt, fill); n != 0 {
		t.Errorf("%d aliases recorded with retention disabled, want 0", n)
	}
	rt.publish(fill, outcome{code: http.StatusOK, body: body})
	for _, key := range []string{"canon", "raw", "fill-canon", "fill-raw"} {
		if _, ok := rt.get(key); ok {
			t.Errorf("get(%q) hit with retention disabled", key)
		}
	}
	joinAs(t, rt, "canon", "raw", leader)
	if n := rt.len(); n != 0 {
		t.Errorf("len = %d, want 0", n)
	}
}

// TestResultCacheEvictionSparesPending: LRU pressure evicts finished
// answers only. A pending entry survives any number of publishes of
// other keys, and a join for its own key follows it; it keeps its
// followers until its leader publishes.
func TestResultCacheEvictionSparesPending(t *testing.T) {
	const capacity = 2
	rt := newResultTable(capacity)
	lead := joinAs(t, rt, "pending", "pending-raw", leader)
	for i := 0; i < 10; i++ {
		put(rt, fmt.Sprintf("key-%d", i), []byte(fmt.Sprintf("body-%d", i)))
	}
	if r := put(rt, "pending", []byte("early")); r != follower {
		t.Errorf("join(pending) role = %d, want follower", r)
	}
	if n := rt.len(); n != capacity {
		t.Errorf("len = %d, want %d", n, capacity)
	}
	if follow := joinAs(t, rt, "pending", "pending-raw", follower); follow != lead {
		t.Fatal("join found a different entry for the pending key")
	}
	body := []byte("answer")
	rt.publish(lead, outcome{code: http.StatusOK, body: body})
	if got, ok := rt.get("pending"); !ok || !bytes.Equal(got, body) {
		t.Errorf("get(pending) = %q, %v; want the leader's body", got, ok)
	}
	if n := rt.len(); n != capacity {
		t.Errorf("len = %d after publish, want %d", n, capacity)
	}
}

// TestResultCacheAliasStormEvictsNothing: ten times the capacity in
// unique raw forms of one answer — bodies that differ only in a comment
// — costs no LRU slot. Every canonical answer survives, the entry keeps
// at most maxAliases aliases, and the map holds no more names than the
// retained answers and their alias slots.
func TestResultCacheAliasStormEvictsNothing(t *testing.T) {
	const capacity = 4
	rt := newResultTable(capacity)
	for i := 0; i < capacity; i++ {
		put(rt, fmt.Sprintf("canon-%d", i), []byte(fmt.Sprintf("body-%d", i)))
	}
	for i := 0; i < 10*capacity; i++ {
		joinAs(t, rt, "canon-0", fmt.Sprintf("storm-%d", i), finished)
	}
	for i := 0; i < capacity; i++ {
		key := fmt.Sprintf("canon-%d", i)
		if got, ok := rt.get(key); !ok || string(got) != fmt.Sprintf("body-%d", i) {
			t.Errorf("get(%q) = %q, %v after the alias storm; want its answer", key, got, ok)
		}
	}
	if n := rt.len(); n != capacity {
		t.Errorf("len = %d, want %d", n, capacity)
	}
	if n := aliasCount(rt, joinAs(t, rt, "canon-0", "raw-canon-0", finished)); n > maxAliases {
		t.Errorf("canon-0 holds %d aliases, want at most %d", n, maxAliases)
	}
	rt.mu.Lock()
	names := len(rt.m)
	rt.mu.Unlock()
	if limit := capacity * (1 + maxAliases); names > limit {
		t.Errorf("table maps %d names, want at most %d", names, limit)
	}
}

// TestResultCacheEarlyAliasSurvivesStorm: when an entry's alias slots
// fill up, the earliest stay. The leader's raw form and the first repeat
// forms keep hitting at the first level after a storm; the storm's tail
// does not.
func TestResultCacheEarlyAliasSurvivesStorm(t *testing.T) {
	rt := newResultTable(4)
	put(rt, "canon", []byte("answer"))
	for i := 0; i < 40; i++ {
		joinAs(t, rt, "canon", fmt.Sprintf("storm-%d", i), finished)
	}
	early := []string{"raw-canon"}
	for i := 0; i < maxAliases-1; i++ {
		early = append(early, fmt.Sprintf("storm-%d", i))
	}
	for _, alias := range early {
		if got, ok := rt.get(alias); !ok || string(got) != "answer" {
			t.Errorf("get(%q) = %q, %v; an early alias must still hit", alias, got, ok)
		}
	}
	if _, ok := rt.get("storm-39"); ok {
		t.Error("the last storm alias hit, but the alias slots were full")
	}
}

// TestResultCacheEvictionDropsAliases: evicting an answer deletes every
// alias with it, so none of its names hits afterwards, and a new join
// for the key leads afresh.
func TestResultCacheEvictionDropsAliases(t *testing.T) {
	rt := newResultTable(1)
	put(rt, "a", []byte("A"))
	joinAs(t, rt, "a", "raw-a2", finished)
	put(rt, "b", []byte("B")) // evicts a
	for _, key := range []string{"a", "raw-a", "raw-a2"} {
		if got, ok := rt.get(key); ok {
			t.Errorf("get(%q) = %q after a was evicted, want a miss", key, got)
		}
	}
	rt.mu.Lock()
	names := len(rt.m)
	rt.mu.Unlock()
	if names != 2 {
		t.Errorf("table maps %d names, want 2 (b and its alias)", names)
	}
	joinAs(t, rt, "a", "raw-a", leader)
}

// TestResultCacheFailedPublishDropsAliases: aliases recorded while an
// entry is pending go with it when the leader publishes a private or a
// shared-500 outcome. They never hit, before or after.
func TestResultCacheFailedPublishDropsAliases(t *testing.T) {
	for _, res := range []outcome{{}, {code: http.StatusInternalServerError, msg: "round limit exceeded"}} {
		rt := newResultTable(8)
		lead := joinAs(t, rt, "canon", "raw-lead", leader)
		joinAs(t, rt, "canon", "raw-follow", follower)
		if n := aliasCount(rt, lead); n != 2 {
			t.Errorf("pending entry holds %d aliases, want 2", n)
		}
		if _, ok := rt.get("raw-lead"); ok {
			t.Error("an alias of a pending entry hit")
		}
		rt.publish(lead, res)
		for _, key := range []string{"canon", "raw-lead", "raw-follow"} {
			if _, ok := rt.get(key); ok {
				t.Errorf("code %d: get(%q) hit after the publish", res.code, key)
			}
		}
		rt.mu.Lock()
		names := len(rt.m)
		rt.mu.Unlock()
		if names != 0 {
			t.Errorf("code %d: table maps %d names after the publish, want 0", res.code, names)
		}
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
