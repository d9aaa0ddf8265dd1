// Coalescing suite, end to end: identical in-flight /v1/run requests
// must share one engine run (and its worker slot), deterministic
// failures must be shared with followers, and a leader whose outcome was
// private to its own budget (cancellation, deadline) must not poison the
// followers — they retry and take the lead themselves. The two cache
// levels' probing order is pinned here too.
//
// Lives in package server for the same reason as server_test.go: the
// tests reach the runEngine seam and the stats internals.
package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"eds/internal/gen"
	"eds/internal/graph"
	"eds/internal/sim"
)

// waitForMisses blocks until n requests have passed the cache probe
// (each records exactly one miss before joining the results table).
func waitForMisses(t *testing.T, s *Server, n int64) {
	t.Helper()
	waitFor(t, func() bool { return s.st.snapshot().Cache.Misses >= n })
}

func TestServerCoalescing(t *testing.T) {
	s, gate, started := gateServer(Config{Workers: 4})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body := graphBytes(t, gen.Cycle(16))

	const followers = 3
	type outcome struct {
		code  int
		cache string
	}
	results := make(chan outcome, 1+followers)
	post := func() {
		resp, _ := postRun(t, ts.Client(), ts.URL, "", body)
		results <- outcome{resp.StatusCode, resp.Header.Get("X-Cache")}
	}

	go post()
	<-started // the leader's engine run is in flight
	for i := 0; i < followers; i++ {
		go post()
	}
	// Every duplicate has passed its cache probe; give them a moment to
	// park on the flight before releasing the leader.
	waitForMisses(t, s, 1+followers)
	time.Sleep(50 * time.Millisecond)
	close(gate)

	var misses, coalesced int
	for i := 0; i < 1+followers; i++ {
		o := <-results
		if o.code != http.StatusOK {
			t.Fatalf("request %d: status %d, want 200", i, o.code)
		}
		switch o.cache {
		case "miss":
			misses++
		case "coalesced":
			coalesced++
		default:
			t.Errorf("request %d: X-Cache = %q", i, o.cache)
		}
	}
	if misses != 1 || coalesced != followers {
		t.Errorf("got %d misses and %d coalesced, want 1 and %d", misses, coalesced, followers)
	}
	if extra := len(started); extra != 0 {
		t.Errorf("%d extra engine runs started; duplicates must share the leader's run", extra)
	}
	coalescedStat := s.st.snapshot().Cache.Coalesced
	if coalescedStat != int64(followers) {
		t.Errorf("statsz coalesced = %d, want %d", coalescedStat, followers)
	}
}

func TestServerCoalescingSharesDeterministicError(t *testing.T) {
	s := New(Config{Workers: 4, CacheEntries: -1})
	gate := make(chan struct{})
	started := make(chan struct{}, 8)
	s.runEngine = func(ctx context.Context, g *graph.Graph, a sim.Algorithm) (*sim.Result, sim.Timings, error) {
		started <- struct{}{}
		<-gate
		return nil, sim.Timings{}, errors.New("deterministic failure for this graph")
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body := graphBytes(t, gen.Cycle(16))

	type outcome struct {
		code int
		body string
	}
	results := make(chan outcome, 2)
	post := func() {
		resp, b := postRun(t, ts.Client(), ts.URL, "", body)
		results <- outcome{resp.StatusCode, string(b)}
	}
	go post()
	<-started
	go post()
	waitForMisses(t, s, 2)
	time.Sleep(50 * time.Millisecond)
	close(gate)

	first, second := <-results, <-results
	for i, o := range []outcome{first, second} {
		if o.code != http.StatusInternalServerError {
			t.Errorf("request %d: status %d, want 500", i, o.code)
		}
	}
	if first.body != second.body {
		t.Errorf("leader and follower error bodies differ:\n%s\n%s", first.body, second.body)
	}
	if extra := len(started); extra != 0 {
		t.Errorf("%d extra engine runs started for a shared deterministic failure", extra)
	}
}

func TestServerFollowerRetriesAfterLeaderTimeout(t *testing.T) {
	s, gate, started := gateServer(Config{Workers: 4, CacheEntries: -1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body := graphBytes(t, gen.Cycle(16))

	var wg sync.WaitGroup
	wg.Add(2)
	var leaderCode, followerCode int
	var followerCache string
	// The leader's budget is far shorter than the follower's: its 504 is
	// private and must not be served to the follower.
	go func() {
		defer wg.Done()
		resp, _ := postRun(t, ts.Client(), ts.URL, "?timeout=100ms", body)
		leaderCode = resp.StatusCode
	}()
	<-started
	go func() {
		defer wg.Done()
		resp, _ := postRun(t, ts.Client(), ts.URL, "?timeout=30s", body)
		followerCode = resp.StatusCode
		followerCache = resp.Header.Get("X-Cache")
	}()
	// The follower retries after the leader's deadline and becomes the
	// new leader: a second engine run starts.
	<-started
	close(gate)
	wg.Wait()

	if leaderCode != http.StatusGatewayTimeout {
		t.Errorf("leader status = %d, want 504", leaderCode)
	}
	if followerCode != http.StatusOK {
		t.Errorf("follower status = %d, want 200", followerCode)
	}
	if followerCache != "miss" {
		t.Errorf("follower X-Cache = %q, want miss (it re-ran the engine itself)", followerCache)
	}
}

func TestServerFollowerHonoursOwnDeadline(t *testing.T) {
	s, gate, started := gateServer(Config{Workers: 4, CacheEntries: -1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body := graphBytes(t, gen.Cycle(16))

	done := make(chan struct{})
	go func() { // leader hangs on the gate until teardown
		postRun(t, ts.Client(), ts.URL, "?timeout=30s", body)
		close(done)
	}()
	<-started
	resp, respBody := postRun(t, ts.Client(), ts.URL, "?timeout=100ms", body)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Errorf("follower status = %d, want 504 (body %s)", resp.StatusCode, respBody)
	}
	close(gate) // release the leader so ts.Close does not wait out its deadline
	<-done
}

// TestServerFollowerRetriesAfterLeaderCancel is the cancellation twin of
// TestServerFollowerRetriesAfterLeaderTimeout: the leader's client hangs
// up, its 499 outcome is private to it, and the follower retries the
// flight as the new leader rather than inheriting the cancellation.
func TestServerFollowerRetriesAfterLeaderCancel(t *testing.T) {
	s, gate, started := gateServer(Config{Workers: 4, CacheEntries: -1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body := graphBytes(t, gen.Cycle(16))

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderDone := make(chan error, 1)
	go func() {
		req, err := http.NewRequestWithContext(leaderCtx, http.MethodPost, ts.URL+"/v1/run", bytes.NewReader(body))
		if err != nil {
			leaderDone <- err
			return
		}
		resp, err := ts.Client().Do(req)
		if err == nil {
			resp.Body.Close()
		}
		leaderDone <- err
	}()
	<-started // the leader holds the flight, its engine run is gated

	var followerCode int
	var followerCache string
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, _ := postRun(t, ts.Client(), ts.URL, "?timeout=30s", body)
		followerCode = resp.StatusCode
		followerCache = resp.Header.Get("X-Cache")
	}()
	waitForMisses(t, s, 2)
	time.Sleep(20 * time.Millisecond) // let the follower park on the flight
	cancelLeader()

	// The follower must notice the leader's private outcome and start its
	// own engine run.
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("follower never retried after the leader's cancellation")
	}
	close(gate)
	wg.Wait()
	if err := <-leaderDone; err == nil {
		t.Error("leader request completed despite its context being canceled")
	}
	if followerCode != http.StatusOK {
		t.Errorf("follower status = %d, want 200", followerCode)
	}
	if followerCache != "miss" {
		t.Errorf("follower X-Cache = %q, want miss (it re-ran the engine itself)", followerCache)
	}
}

// TestTwoLevelKeyProbing pins the probing order of the two cache levels:
// a byte-identical replay is answered by the raw key without decoding,
// a cosmetic variant falls through to the canonical key and records its
// own raw key as an alias, and the alias makes the next replay of the
// variant a raw hit too. Direct probes of the variant's raw key are the
// witness: it misses before the canonical hit and hits after it.
func TestTwoLevelKeyProbing(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body := graphBytes(t, gen.Cycle(12))
	variant := append([]byte("# cosmetic comment, same canonical graph\n"), body...)
	rawKey := func(b []byte) string { return cacheKey(sha256.Sum256(b), "auto", false) }

	post := func(b []byte) string {
		t.Helper()
		resp, out := postRun(t, ts.Client(), ts.URL, "?alg=auto", b)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d (body %s)", resp.StatusCode, out)
		}
		return resp.Header.Get("X-Cache")
	}

	if c := post(body); c != "miss" {
		t.Fatalf("prime: X-Cache = %q, want miss", c)
	}
	if _, ok := s.results.get(rawKey(body)); !ok {
		t.Fatal("after the priming miss the body's raw key does not hit")
	}
	if c := post(body); c != "hit" {
		t.Errorf("byte-identical replay: X-Cache = %q, want hit", c)
	}
	if _, ok := s.results.get(rawKey(variant)); ok {
		t.Fatal("the variant's raw key hits before the variant was ever sent")
	}
	if c := post(variant); c != "hit" {
		t.Errorf("cosmetic variant: X-Cache = %q, want hit via the canonical key", c)
	}
	if _, ok := s.results.get(rawKey(variant)); !ok {
		t.Error("the canonical hit did not record the variant's raw key as an alias")
	}
	if c := post(variant); c != "hit" {
		t.Errorf("variant replay: X-Cache = %q, want hit", c)
	}
	if n := s.results.len(); n != 1 {
		t.Errorf("%d answers retained, want 1: both wire forms name one answer", n)
	}
}
