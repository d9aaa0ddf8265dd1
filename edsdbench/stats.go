package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"strings"
	"syscall"
	"time"
)

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks; 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	if math.IsInf(s[lo+1], 1) {
		return s[lo+1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// share is n/d, or 0 when d is 0.
func share(n, d float64) float64 {
	if d == 0 {
		return 0
	}
	return n / d
}

// snapshot is the process and fleet state at one edge of the window.
type snapshot struct {
	cpu       time.Duration // user+sys CPU of the process
	allocated uint64        // runtime.MemStats.TotalAlloc
	gcCycles  uint64
	gcCPU     float64 // seconds
	totalCPU  float64 // seconds available to Go (GOMAXPROCS × wall)
	fleet     fleetStats
}

var rtSamples = []metrics.Sample{
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func takeSnapshot(f *fleet) (snapshot, error) {
	var s snapshot
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return s, err
	}
	s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.allocated = ms.TotalAlloc
	samples := slices.Clone(rtSamples)
	metrics.Read(samples)
	s.gcCycles = samples[0].Value.Uint64()
	s.gcCPU = samples[1].Value.Float64()
	s.totalCPU = samples[2].Value.Float64()
	var err error
	s.fleet, err = f.stats()
	return s, err
}

// sampler polls the fleet's queue depth and the process's live heap
// while a traced run's untraced phase runs.
type sampler struct {
	stop, done chan struct{}
	depths     []float64
	heapMax    uint64
	err        error
}

func startSampler(f *fleet, every time.Duration) *sampler {
	s := &sampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		heap := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
			fs, err := f.stats()
			if err != nil {
				s.err = err
				return
			}
			s.depths = append(s.depths, float64(fs.queueDepth))
			metrics.Read(heap)
			s.heapMax = max(s.heapMax, heap[0].Value.Uint64())
		}
	}()
	return s
}

// finish stops the sampler and waits for it to exit.
func (s *sampler) finish() error {
	close(s.stop)
	<-s.done
	return s.err
}

// allocsOf runs fn once and returns the heap allocations and bytes it
// made. Call it while nothing else runs.
func allocsOf(fn func()) (allocs, bytes uint64) {
	runtime.GC()
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return b.Mallocs - a.Mallocs, b.TotalAlloc - a.TotalAlloc
}

// cpuModel names the processor, for the environment record.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
