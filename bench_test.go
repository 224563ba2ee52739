package ortoa

// Benchmarks of the protocol hot paths, one per protocol, over the
// facade on a loopback link (no WAN sleeps). The paper's tables and
// figures are cmd/ortoa-bench's experiments (`make experiments`), and
// the numbers a performance claim may rest on are the repository
// benchmark's (benchmark/, BENCHMARK.json).

import (
	"fmt"
	"net"
	"testing"

	"ortoa/internal/core"
	"ortoa/internal/netsim"
	"ortoa/internal/workload"
)

func benchDeploy(b *testing.B, protocol Protocol, valueSize int) *Client {
	b.Helper()
	return benchDeployOver(b, netsim.Loopback, protocol, valueSize)
}

func benchDeployOver(b *testing.B, link netsim.Link, protocol Protocol, valueSize int) *Client {
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
	l := netsim.Listen(link)
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

// BenchmarkLoad measures initial outsourcing (Init of Figure 1): 32
// values per protocol over a loopback link, and the load of the
// repository benchmark's WAN workload — 2,000 LBL values of 160 B, 20.5
// MB of records, over netsim.Oregon (21.84 ms, 12 MiB/s a connection) —
// whose MB/s is that of records outsourced.
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
	b.Run("wan/lbl-2000x160B", func(b *testing.B) {
		const n, size = 2000, 160
		client := benchDeployOver(b, netsim.Oregon, ProtocolLBL, size)
		data := make(map[string][]byte, n)
		for i := 0; i < n; i++ {
			data[workload.Key(i)] = make([]byte, size)
		}
		b.SetBytes(int64(n * core.LBLConfig{ValueSize: size, Mode: core.LBLPointPermute}.ServerBytesPerValue()))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := client.Load(data); err != nil {
				b.Fatal(err)
			}
		}
	})
}
