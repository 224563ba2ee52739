package obs

import (
	"testing"
	"time"
)

// BenchmarkHistogramObserve measures the instrumented hot path: three
// atomic adds, ~10ns on modern hardware — invisible next to a ~100µs
// LBL access.
func BenchmarkHistogramObserve(b *testing.B) {
	var h Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(time.Duration(i))
	}
}

// BenchmarkHistogramObserveParallel measures contention: concurrent
// observers share cache lines but take no locks.
func BenchmarkHistogramObserveParallel(b *testing.B) {
	var h Histogram
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			h.Observe(time.Microsecond)
		}
	})
}
