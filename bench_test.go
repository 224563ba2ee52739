package ortoa

// Benchmarks regenerating the paper's evaluation. One benchmark per
// table/figure drives the corresponding harness experiment (smoke
// scale — `go test -bench Fig -benchtime 1x`); cmd/ortoa-bench runs
// the full-scale versions. The remaining benchmarks measure the
// protocol hot paths themselves.

import (
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"ortoa/internal/harness"
	"ortoa/internal/netsim"
	"ortoa/internal/workload"
)

// benchOpts keeps experiment benchmarks at smoke scale.
var benchOpts = harness.Options{Quick: true, Keys: 48, Ops: 2, Concurrency: 4}

func runExperiment(b *testing.B, id string) {
	b.Helper()
	exp, err := harness.Lookup(id)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		table, err := exp.Run(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		if err := table.Render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2RTT(b *testing.B)         { runExperiment(b, "table2") }
func BenchmarkFig2aLocations(b *testing.B)    { runExperiment(b, "fig2a") }
func BenchmarkFig2bConcurrency(b *testing.B)  { runExperiment(b, "fig2b") }
func BenchmarkFig2cWriteRatio(b *testing.B)   { runExperiment(b, "fig2c") }
func BenchmarkFig2dDatabaseSize(b *testing.B) { runExperiment(b, "fig2d") }
func BenchmarkFig3aScaling(b *testing.B)      { runExperiment(b, "fig3a") }
func BenchmarkFig3bValueSize(b *testing.B)    { runExperiment(b, "fig3b") }
func BenchmarkFig3cBreakdown(b *testing.B)    { runExperiment(b, "fig3c") }
func BenchmarkFig3dGDPR(b *testing.B)         { runExperiment(b, "fig3d") }
func BenchmarkFig4RealDatasets(b *testing.B)  { runExperiment(b, "fig4") }
func BenchmarkFHENoise(b *testing.B)          { runExperiment(b, "fhe-noise") }
func BenchmarkCostModel(b *testing.B)         { runExperiment(b, "cost") }
func BenchmarkFig6Factors(b *testing.B)       { runExperiment(b, "fig6") }
func BenchmarkAblationLBLModes(b *testing.B)  { runExperiment(b, "ablation-lbl") }
func BenchmarkAblationTEECost(b *testing.B)   { runExperiment(b, "ablation-tee") }
func BenchmarkAblationFHERelin(b *testing.B)  { runExperiment(b, "ablation-fhe-relin") }
func BenchmarkAblationZipf(b *testing.B)      { runExperiment(b, "ablation-zipf") }
func BenchmarkAttackSnapshot(b *testing.B)    { runExperiment(b, "attack-snapshot") }
func BenchmarkORAMRounds(b *testing.B)        { runExperiment(b, "oram-rounds") }

// --- protocol hot paths (loopback link, no WAN sleeps) ---

func benchDeploy(b *testing.B, protocol Protocol, valueSize int) *Client {
	b.Helper()
	scfg := ServerConfig{Protocol: protocol, ValueSize: valueSize}
	ccfg := ClientConfig{Protocol: protocol, ValueSize: valueSize, Keys: GenerateKeys()}
	if protocol == ProtocolFHE {
		opts := FHEOptions{RingDegree: 64, ModulusBits: 220}
		scfg.FHE, ccfg.FHE = opts, opts
	}
	server, err := NewServer(scfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { server.Close() })
	l := netsim.Listen(netsim.Loopback)
	go server.Serve(l)
	client, err := NewClient(ccfg, func() (net.Conn, error) { return l.Dial() })
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { client.Close() })
	if protocol == ProtocolTEE {
		if err := client.Provision(); err != nil {
			b.Fatal(err)
		}
	}
	data := make(map[string][]byte, 64)
	for i := 0; i < 64; i++ {
		data[workload.Key(i)] = make([]byte, valueSize)
	}
	if err := client.Load(data); err != nil {
		b.Fatal(err)
	}
	return client
}

// BenchmarkLBLAccess160B measures one LBL-ORTOA access at the paper's
// default object size: the proxy's table construction (2·ℓ PRFs +
// 2^y·ℓ/y seals), the server's decrypt-and-install, and the recovery.
func BenchmarkLBLAccess160B(b *testing.B) {
	client := benchDeploy(b, ProtocolLBL, 160)
	value := make([]byte, 160)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if i%2 == 0 {
			_, err = client.Read(workload.Key(i % 64))
		} else {
			err = client.Write(workload.Key(i%64), value)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLBLAccessBySize sweeps the value sizes of Fig 3b.
func BenchmarkLBLAccessBySize(b *testing.B) {
	for _, size := range []int{10, 50, 160, 300, 600} {
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) {
			client := benchDeploy(b, ProtocolLBL, size)
			b.SetBytes(int64(size))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := client.Read(workload.Key(i % 64)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTEEAccess160B measures a TEE-ORTOA access: two AES seals at
// the client, one ecall with three opens and a seal in the enclave.
func BenchmarkTEEAccess160B(b *testing.B) {
	client := benchDeploy(b, ProtocolTEE, 160)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.Read(workload.Key(i % 64)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBaselineAccess160B measures the 2RTT baseline access: two
// RPCs, one open, one seal.
func BenchmarkBaselineAccess160B(b *testing.B) {
	client := benchDeploy(b, ProtocolBaseline2RTT, 160)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.Read(workload.Key(i % 64)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFHEAccessWrite measures one FHE-ORTOA write: three BFV
// encryptions at the client plus two homomorphic multiplications and
// an addition at the server. Writes keep the stored degree growing, so
// successive iterations get costlier, exactly as §3.3 describes —
// reads are benchmarked only a few at a time for that reason.
func BenchmarkFHEAccessWrite(b *testing.B) {
	client := benchDeploy(b, ProtocolFHE, 16)
	value := make([]byte, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Spread accesses over keys so no single ciphertext exceeds
		// its degree cap mid-benchmark.
		if err := client.Write(workload.Key(i%64), value); err != nil {
			b.Fatal(err)
		}
	}
}

// --- batched access pipeline ---

// benchDeployLink is benchDeploy over an arbitrary link, for the batch
// benchmarks where the round-trip count is the quantity under test.
func benchDeployLink(b *testing.B, link netsim.Link, valueSize, keys int) *Client {
	b.Helper()
	server, err := NewServer(ServerConfig{Protocol: ProtocolLBL, ValueSize: valueSize})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { server.Close() })
	l := netsim.Listen(link)
	go server.Serve(l)
	client, err := NewClient(
		ClientConfig{Protocol: ProtocolLBL, ValueSize: valueSize, Keys: GenerateKeys()},
		func() (net.Conn, error) { return l.Dial() })
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { client.Close() })
	data := make(map[string][]byte, keys)
	for i := 0; i < keys; i++ {
		data[workload.Key(i)] = make([]byte, valueSize)
	}
	if err := client.Load(data); err != nil {
		b.Fatal(err)
	}
	return client
}

// batchBenchLink models the paper's cross-country hop (Table 2's
// N.Virginia propagation delay, bandwidth left unlimited so the
// comparison isolates round trips). Batching's payoff is round trips,
// not CPU: on loopback the table-sealing work dominates and both
// paths measure the same, so the benchmark runs where the paper's
// deployments do — behind real latency. The concurrent fallback is
// windowed at batchParallelism in-flight calls, so a batch of 64 costs
// it ⌈64/16⌉ = 4 sequential round trips; the batch RPC costs 1.
var batchBenchLink = netsim.Link{RTT: 62 * time.Millisecond}

const batchBenchSize = 64

func benchBatchKeys() []string {
	keys := make([]string, batchBenchSize)
	for i := range keys {
		keys[i] = workload.Key(i)
	}
	return keys
}

// BenchmarkReadBatch64WAN measures the batched pipeline end to end:
// one LBL round for 64 keys.
func BenchmarkReadBatch64WAN(b *testing.B) {
	client := benchDeployLink(b, batchBenchLink, 160, batchBenchSize)
	keys := benchBatchKeys()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.ReadBatch(keys); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReadBatch64WANConcurrent measures the seed's fallback path
// on the same link and batch: one RPC per key, batchParallelism at a
// time. The ratio against BenchmarkReadBatch64WAN is the batching win.
func BenchmarkReadBatch64WANConcurrent(b *testing.B) {
	client := benchDeployLink(b, batchBenchLink, 160, batchBenchSize)
	keys := benchBatchKeys()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.readBatchConcurrent(keys); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReadBatch64Loopback isolates the CPU side of the batch
// path (table building, batch framing, server fan-out) with no
// latency to hide behind.
func BenchmarkReadBatch64Loopback(b *testing.B) {
	client := benchDeployLink(b, netsim.Loopback, 160, batchBenchSize)
	keys := benchBatchKeys()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.ReadBatch(keys); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWriteBatch64WAN is the write-side twin of
// BenchmarkReadBatch64WAN — identical traffic shape by design.
func BenchmarkWriteBatch64WAN(b *testing.B) {
	client := benchDeployLink(b, batchBenchLink, 160, batchBenchSize)
	entries := make(map[string][]byte, batchBenchSize)
	value := make([]byte, 160)
	for i := 0; i < batchBenchSize; i++ {
		entries[workload.Key(i)] = value
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := client.WriteBatch(entries); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLoad measures initial outsourcing (Init of Figure 1).
func BenchmarkLoad(b *testing.B) {
	for _, protocol := range []Protocol{ProtocolLBL, ProtocolTEE} {
		b.Run(string(protocol), func(b *testing.B) {
			client := benchDeploy(b, protocol, 160)
			data := make(map[string][]byte, 32)
			for i := 0; i < 32; i++ {
				data[fmt.Sprintf("load-%d-", i)] = make([]byte, 160)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := client.Load(data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
