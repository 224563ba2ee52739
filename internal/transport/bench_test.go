package transport

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"ortoa/internal/netsim"
)

func benchServer(b *testing.B) *netsim.Listener {
	b.Helper()
	s := NewServer()
	s.Handle(1, func(_ context.Context, p []byte) ([]byte, error) { return bytes.Clone(p), nil })
	l := netsim.Listen(netsim.Loopback)
	go s.Serve(l)
	b.Cleanup(func() { s.Close() })
	return l
}

func BenchmarkCallEcho(b *testing.B) {
	for _, size := range []int{64, 4096, 65536} {
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) {
			l := benchServer(b)
			c, err := Dial(l.Dial, 1)
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			payload := make([]byte, size)
			b.SetBytes(int64(2 * size))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.Call(1, payload); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkCallParallel(b *testing.B) {
	l := benchServer(b)
	c, err := Dial(l.Dial, 4)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	payload := make([]byte, 256)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := c.Call(1, payload); err != nil {
				b.Fatal(err)
			}
		}
	})
}
