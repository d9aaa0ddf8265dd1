package server

import (
	"fmt"
	"sync"
	"time"

	"eds/internal/sim"
)

// histogram is a log-2 histogram: bucket k counts observations in
// [2^(k-1), 2^k) of the unit (bucket 0 is < 1), with the last bucket
// absorbing the overflow. The same machinery backs every distribution
// /statsz exposes — per-algorithm latencies (unit "ms", 16 buckets
// cover ~32 s, past any deadline the server grants), batch sizes (unit
// "", 16 buckets cover 32k-way coalescing), and streamed response sizes
// (unit "B", 28 buckets cover 128 MiB bodies).
type histogram struct {
	buckets []int64
	unit    string
	count   int64
	sum     int64
	max     int64
}

func newHistogram(nbuckets int, unit string) *histogram {
	return &histogram{buckets: make([]int64, nbuckets), unit: unit}
}

func (h *histogram) observe(v int64) {
	k := 0
	for x := v; x > 0 && k < len(h.buckets)-1; x >>= 1 {
		k++
	}
	h.buckets[k]++
	h.count++
	h.sum += v
	if v > h.max {
		h.max = v
	}
}

// histogramSnapshot is the JSON shape of one histogram in /statsz.
type histogramSnapshot struct {
	Count   int64            `json:"count"`
	Mean    float64          `json:"mean"`
	Max     int64            `json:"max"`
	Buckets map[string]int64 `json:"buckets,omitempty"`
}

func (h *histogram) snapshot() histogramSnapshot {
	s := histogramSnapshot{Count: h.count, Max: h.max, Buckets: map[string]int64{}}
	if h.count > 0 {
		s.Mean = float64(h.sum) / float64(h.count)
	}
	for k, c := range h.buckets {
		if c == 0 {
			continue
		}
		label := "<1" + h.unit
		if k > 0 {
			label = fmt.Sprintf("<%d%s", 1<<k, h.unit)
		}
		if k == len(h.buckets)-1 {
			label = fmt.Sprintf(">=%d%s", 1<<(k-1), h.unit)
		}
		s.Buckets[label] = c
	}
	return s
}

// peerCounters tracks this replica's traffic with one peer, keyed by the
// peer's base URL. Sent/relayed/fallbacks count this replica acting as
// a non-owner (client of the fill protocol); served counts it acting as
// the owner for that peer.
type peerCounters struct {
	// FillsSent is the number of fill requests this replica addressed to
	// the peer (each with its own retry budget).
	FillsSent int64 `json:"fills_sent"`
	// FillsRelayed is how many of those produced an answer relayed to
	// the client — a cached or computed 200, or a deterministic error.
	FillsRelayed int64 `json:"fills_relayed"`
	// Fallbacks is how many fills failed (peer unreachable, draining, or
	// saturated) and degraded to local compute.
	Fallbacks int64 `json:"fallbacks"`
	// FillsServed is the number of fill requests this replica answered
	// as the owner on the peer's behalf.
	FillsServed int64 `json:"fills_served"`
}

// stats aggregates the serving metrics exposed at /statsz. One mutex is
// plenty: every field is touched a handful of times per request, far
// off any hot path.
type stats struct {
	mu          sync.Mutex
	requests    int64
	byStatus    map[int]int64
	cacheHits   int64
	cacheMisses int64
	coalesced   int64
	perAlg      map[string]*histogram
	// phases accumulates the engines' setup/rounds/outputs wall-time
	// split (sim.WithTimings) over every completed run, exposing where
	// serving time actually goes: a setup-heavy mix means run construction
	// dominates and the arena/bulk path is the lever; a rounds-heavy mix
	// means the protocol itself does. runs doubles as the replica's
	// engine-run counter — the cluster e2e suite sums it across replicas
	// to prove a graph was computed exactly once fleet-wide.
	phases sim.Timings
	runs   int64
	// batchSizes distributes how many requests each engine run served
	// (leader + coalesced followers): the windowed batcher's yield.
	batchSizes *histogram
	// stream counts chunked NDJSON responses and their bytes; the
	// histogram shows the size distribution the buffered-JSON path never
	// has to hold in memory.
	streamResponses int64
	streamBytes     int64
	streamSizes     *histogram
	peers           map[string]*peerCounters
}

func newStats() *stats {
	return &stats{
		byStatus:    map[int]int64{},
		perAlg:      map[string]*histogram{},
		batchSizes:  newHistogram(16, ""),
		streamSizes: newHistogram(28, "B"),
		peers:       map[string]*peerCounters{},
	}
}

func (s *stats) recordStatus(code int) {
	s.mu.Lock()
	s.requests++
	s.byStatus[code]++
	s.mu.Unlock()
}

func (s *stats) recordCache(hit bool) {
	s.mu.Lock()
	if hit {
		s.cacheHits++
	} else {
		s.cacheMisses++
	}
	s.mu.Unlock()
}

// recordCoalesced counts a follower served the shared outcome of an
// identical in-flight run.
func (s *stats) recordCoalesced() {
	s.mu.Lock()
	s.coalesced++
	s.mu.Unlock()
}

// recordPhases accumulates one completed run's phase split.
func (s *stats) recordPhases(split sim.Timings) {
	s.mu.Lock()
	s.phases.Setup += split.Setup
	s.phases.Rounds += split.Rounds
	s.phases.Outputs += split.Outputs
	s.runs++
	s.mu.Unlock()
}

// recordBatch notes that one engine run's outcome served size requests.
func (s *stats) recordBatch(size int64) {
	s.mu.Lock()
	s.batchSizes.observe(size)
	s.mu.Unlock()
}

// recordStream notes one finished NDJSON response of n body bytes.
func (s *stats) recordStream(n int64) {
	s.mu.Lock()
	s.streamResponses++
	s.streamBytes += n
	s.streamSizes.observe(n)
	s.mu.Unlock()
}

func (s *stats) peer(base string) *peerCounters {
	p := s.peers[base]
	if p == nil {
		p = &peerCounters{}
		s.peers[base] = p
	}
	return p
}

func (s *stats) recordFillSent(base string) {
	s.mu.Lock()
	s.peer(base).FillsSent++
	s.mu.Unlock()
}

func (s *stats) recordFillRelayed(base string) {
	s.mu.Lock()
	s.peer(base).FillsRelayed++
	s.mu.Unlock()
}

func (s *stats) recordFallback(base string) {
	s.mu.Lock()
	s.peer(base).Fallbacks++
	s.mu.Unlock()
}

func (s *stats) recordFillServed(base string) {
	s.mu.Lock()
	s.peer(base).FillsServed++
	s.mu.Unlock()
}

func (s *stats) recordLatency(alg string, d time.Duration) {
	s.mu.Lock()
	h := s.perAlg[alg]
	if h == nil {
		h = newHistogram(16, "ms")
		s.perAlg[alg] = h
	}
	h.observe(d.Milliseconds())
	s.mu.Unlock()
}

// snapshot fills the /statsz fields stats owns from one consistent
// copy of its counters. Cluster carries only the per-peer counters;
// handleStatsz adds the fleet view, or drops it without a cluster.
func (s *stats) snapshot() statszResponse {
	s.mu.Lock()
	defer s.mu.Unlock()
	var resp statszResponse
	resp.Requests.Total = s.requests
	resp.Requests.ByStatus = make(map[string]int64, len(s.byStatus))
	for code, c := range s.byStatus {
		resp.Requests.ByStatus[fmt.Sprintf("%d", code)] = c
	}
	resp.Cache.Hits = s.cacheHits
	resp.Cache.Misses = s.cacheMisses
	if s.cacheHits+s.cacheMisses > 0 {
		resp.Cache.HitRate = float64(s.cacheHits) / float64(s.cacheHits+s.cacheMisses)
	}
	resp.Cache.Coalesced = s.coalesced
	resp.LatencyMs = make(map[string]histogramSnapshot, len(s.perAlg))
	for alg, h := range s.perAlg {
		resp.LatencyMs[alg] = h.snapshot()
	}
	resp.EngineTime.Runs = s.runs
	resp.EngineTime.SetupMs = float64(s.phases.Setup) / float64(time.Millisecond)
	resp.EngineTime.RoundsMs = float64(s.phases.Rounds) / float64(time.Millisecond)
	resp.EngineTime.OutputsMs = float64(s.phases.Outputs) / float64(time.Millisecond)
	resp.Batch.Sizes = s.batchSizes.snapshot()
	resp.Stream.Responses = s.streamResponses
	resp.Stream.Bytes = s.streamBytes
	resp.Stream.Sizes = s.streamSizes.snapshot()
	resp.Cluster = &clusterStatsz{Peers: make(map[string]peerStatszView, len(s.peers))}
	for base, p := range s.peers {
		resp.Cluster.Peers[base] = peerStatszView{peerCounters: *p}
	}
	return resp
}
