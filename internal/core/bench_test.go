package core

import (
	"context"
	"fmt"
	"testing"

	"ortoa/internal/crypto/prf"
	"ortoa/internal/crypto/secretbox"
	"ortoa/internal/kvstore"
	"ortoa/internal/netsim"
	"ortoa/internal/obs"
	"ortoa/internal/transport"
)

// BenchmarkLBLBuildRequest isolates the proxy's table construction
// (steps 1.1–1.5 of §5.2) — the "p" term of the §6.3.2 decision rule.
func BenchmarkLBLBuildRequest(b *testing.B) {
	for _, mode := range allLBLModes() {
		for _, size := range []int{10, 160, 600} {
			b.Run(fmt.Sprintf("%v/%dB", mode, size), func(b *testing.B) {
				proxy, err := NewLBLProxy(LBLConfig{ValueSize: size, Mode: mode}, prf.NewRandom(), nil)
				if err != nil {
					b.Fatal(err)
				}
				value := make([]byte, size)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := proxy.buildRequest(OpWrite, "k", value, uint64(i)); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkLBLServerDecrypt isolates the server's per-access work on the
// table: decryptRange, the decryption pass of step 2.1 of §5.2 that
// recovers every group's new label and the response slot's fields and
// digest, over one prebuilt 160 B table and the record it opens.
// decryptRange is pure — it reads the record and the table and writes
// into caller buffers — so one table serves every iteration. ns/block is
// ns/op over the access's server floor, ServerAESBlocks.
func BenchmarkLBLServerDecrypt(b *testing.B) {
	for _, mode := range allLBLModes() {
		b.Run(mode.String(), func(b *testing.B) {
			cfg := LBLConfig{ValueSize: 160, Mode: mode}
			p, err := NewLBLProxy(cfg, prf.NewRandom(), nil)
			if err != nil {
				b.Fatal(err)
			}
			_, raw, err := p.BuildRecord("bench", make([]byte, cfg.ValueSize))
			if err != nil {
				b.Fatal(err)
			}
			req, err := p.buildRequest(OpRead, "bench", nil, 0)
			if err != nil {
				b.Fatal(err)
			}
			rec, err := parseLBLRecord(raw, cfg)
			if err != nil {
				b.Fatal(err)
			}
			table := req[cfg.segPrefixLen():]
			groups := cfg.Groups()
			labels, fields := make([]byte, groups*prf.Size), make([]byte, cfg.ValueSize)
			var digest labelDigest
			var sealer secretbox.LabelSealer
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				clear(fields)
				if _, ok := decryptRange(mode, &sealer, &rec, table, 0, groups, labels, fields, &digest); !ok {
					b.Fatal("the table does not open under its record")
				}
			}
			ctr, single := cfg.ServerAESBlocks()
			reportPerBlock(b, ctr+single)
		})
	}
}

// BenchmarkLBLAccess160B measures a full in-process LBL access
// (loopback link) with instrumentation off vs on — the observability
// overhead budget is ≤2%.
func BenchmarkLBLAccess160B(b *testing.B) {
	for _, instrumented := range []bool{false, true} {
		name := "bare"
		if instrumented {
			name = "instrumented"
		}
		b.Run(name, func(b *testing.B) {
			r, proxy, srv := newBenchLBL(b, LBLPointPermute, 160)
			if instrumented {
				reg := obs.NewRegistry()
				proxy.Instrument(reg)
				srv.Instrument(reg)
				r.client.Instrument(reg)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := proxy.AccessContext(context.Background(), OpRead, "bench", nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func newBenchLBL(b *testing.B, mode LBLMode, valueSize int) (*rig, *LBLProxy, *LBLServer) {
	b.Helper()
	r := &rig{store: kvstore.New(), server: transport.NewServer()}
	l := netsim.Listen(netsim.Loopback)
	go r.server.Serve(l)
	b.Cleanup(func() { r.server.Close() })
	c, err := transport.Dial(l.Dial, 2)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { c.Close() })
	r.client = c

	srv := NewLBLServer(r.store)
	srv.Register(r.server)
	proxy, err := NewLBLProxy(LBLConfig{ValueSize: valueSize, Mode: mode}, prf.NewRandom(), c)
	if err != nil {
		b.Fatal(err)
	}
	ek, rec, err := proxy.BuildRecord("bench", make([]byte, valueSize))
	if err != nil {
		b.Fatal(err)
	}
	r.store.Put(ek, rec)
	return r, proxy, srv
}

// BenchmarkTableBuildKernel1KiB measures 1 KiB basic-mode
// encryption-table construction across worker counts: the generic,
// tagged-entry build, which no deployment runs by default — the public
// package's default variant is point-and-permute, whose kernels
// BenchmarkWorkerCrossover and BenchmarkLBLServerDecrypt measure. The
// repository benchmark's per-layer ledger (core.proxy.table_build_us and
// friends) holds the gated numbers.
func BenchmarkTableBuildKernel1KiB(b *testing.B) {
	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			k, err := NewTableBuildKernel(LBLConfig{ValueSize: 1024, Mode: LBLBasic}, workers)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(k.TableBytes()))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := k.Op(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRecoverKernel1KiB measures the server decrypt/install pass
// plus proxy recovery against prebuilt tables; table construction
// happens outside the timer.
func BenchmarkRecoverKernel1KiB(b *testing.B) {
	k, err := NewRecoverKernel(LBLConfig{ValueSize: 1024, Mode: LBLBasic}, 64, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	left := 0
	for i := 0; i < b.N; i++ {
		if left == 0 {
			b.StopTimer()
			if err := k.Prepare(); err != nil {
				b.Fatal(err)
			}
			left = k.Window()
			b.StartTimer()
		}
		if err := k.Op(); err != nil {
			b.Fatal(err)
		}
		left--
	}
}

// BenchmarkWorkerCrossover is the measurement minGroupsPerBuildWorker is
// set from (EXPERIMENTS.md, "Worker crossover"): one access's table
// build, sequential against two workers, from 64 groups to 16 384
// (point-and-permute, 16 B to 4 KiB values). ns/block is ns/op over the
// access's proxy floor, ProxyAESBlocks, two blocks of which — of 7,682 at
// 640 groups — are the verifier pair, which the build alone does not seal.
func BenchmarkWorkerCrossover(b *testing.B) {
	for _, groups := range []int{64, 128, 256, 384, 512, 640, 1024, 2048, 4096, 16384} {
		cfg := LBLConfig{ValueSize: groups / 4, Mode: LBLPointPermute}
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("build/groups=%d/workers=%d", groups, workers), func(b *testing.B) {
				k, err := NewTableBuildKernel(cfg, workers)
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := k.Op(); err != nil {
						b.Fatal(err)
					}
				}
				ctr, single := cfg.ProxyAESBlocks()
				reportPerBlock(b, ctr+single)
			})
		}
	}
}

// reportPerBlock reports the benchmark's ns/op over the AES blocks of
// one op.
func reportPerBlock(b *testing.B, blocks int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(blocks), "ns/block")
}
