package obs

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestConcurrentHammer drives one histogram, counter, and gauge from
// many goroutines at once. Under `go test -race` (the Makefile's
// verify target) this proves the hot path is contention-free by
// construction: Observe/Add/Set are single atomic operations with no
// mutex, so the race detector sees only atomics and the final counts
// must be exact.
func TestConcurrentHammer(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hammer_total", "")
	g := r.Gauge("hammer_inflight", "")
	h := r.Histogram("hammer_seconds", "")
	l := r.SlowLog("hammer", 16)

	workers := 4 * runtime.GOMAXPROCS(0)
	const perWorker = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Inc()
				d := time.Duration(i%1000+1) * time.Microsecond
				h.Observe(d)
				if l.worthy(d) {
					l.record(Trace{Total: d, Label: "w", Stages: []Stage{{Name: "s", D: d}}})
				}
				g.Dec()
			}
		}(w)
	}
	wg.Wait()

	total := int64(workers) * perWorker
	if got := c.Value(); got != total {
		t.Fatalf("counter = %d, want %d (lost updates)", got, total)
	}
	if got := g.Value(); got != 0 {
		t.Fatalf("gauge = %d, want 0", got)
	}
	if got := h.Count(); got != uint64(total) {
		t.Fatalf("histogram count = %d, want %d (lost updates)", got, total)
	}
	// Bucket sums must equal the count: no torn bucket updates.
	var bucketSum uint64
	for i := range h.buckets {
		bucketSum += h.buckets[i].Load()
	}
	if bucketSum != uint64(total) {
		t.Fatalf("bucket sum = %d, want %d", bucketSum, total)
	}
	if l.Len() != 16 {
		t.Fatalf("slowlog retained %d, want 16", l.Len())
	}
	// All retained traces must be from the slow tail.
	for _, e := range l.Entries() {
		if e.Total < 900*time.Microsecond {
			t.Fatalf("slowlog retained fast request %v", e.Total)
		}
	}
}

// TestConcurrentScrape scrapes the registry while writers are active:
// exposition must never race with hot-path updates.
func TestConcurrentScrape(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("scrape_seconds", "")
	c := r.Counter("scrape_total", "")
	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
					h.Observe(time.Microsecond)
					c.Inc()
				}
			}
		}()
	}
	for i := 0; i < 50; i++ {
		if err := r.WritePrometheus(discard{}); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }
