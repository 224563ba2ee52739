package main

import (
	"time"

	"ortoa/internal/netsim"
)

// A spec is one workload: a three-tier deployment plus the traffic driven
// through it. Every workload runs LBL point-permute, the paper's
// default; what differs is which layers the traffic makes expensive.
type spec struct {
	name string
	why  string // one line, repeated in BENCHMARK.json

	keys      int
	valueSize int

	// link is the proxy→server path; nil means real loopback TCP.
	link        *netsim.Link
	durable     bool          // server WAL with FsyncGroupCommit in a real directory
	aggWindow   time.Duration // proxy front-end aggregation window; 0 = off
	streamChunk int           // ClientConfig.StreamChunk; 0 = monolithic frames

	zipfian   bool    // key skew 0.99; false = uniform
	writeFrac float64 // share of operations that are writes
	sessions  int     // closed-loop callers

	openRate  float64       // open-loop arrivals per second
	openLimit time.Duration // open-loop latency limit, from due time
}

var dcLink = netsim.Link{RTT: 500 * time.Microsecond, Bandwidth: 125 << 20}

// workloads are sized on a 2-CPU host. Open-loop rates sit at about
// 30 % of the closed-loop capacity first read there (wan-agg-160b: half
// of what its hottest key can take). Nearer capacity the median from due
// time is mostly queueing, and a host that runs 20 % slower for a while,
// as the sizing host did, doubles it.
var workloads = []spec{
	{
		name: "lan-160b",
		why:  "CPU-bound: loopback TCP, 160 B values, 50% writes; table garbling, trial decryption and per-frame transport cost do all the work",
		keys: 10000, valueSize: 160,
		writeFrac: 0.5, sessions: 2,
		openRate: 800, openLimit: 50 * time.Millisecond,
	},
	{
		name: "lan-160b-durable",
		why:  "as lan-160b plus a group-commit WAL in a real directory: every access rewrites its record, so put, append and fsync wait sit on every access",
		keys: 4000, valueSize: 160, durable: true,
		writeFrac: 0.5, sessions: 8,
		openRate: 500, openLimit: 50 * time.Millisecond,
	},
	{
		name: "wan-agg-160b",
		why:  "RTT- and bandwidth-bound: 21.84 ms, 12 MiB/s link with 2 ms aggregation, zipfian, 5% writes, 32 sessions; round trips, window wait and wire bytes decide it",
		keys: 2000, valueSize: 160, link: &netsim.Oregon, aggWindow: 2 * time.Millisecond,
		zipfian: true, writeFrac: 0.05, sessions: 32,
		openRate: 150, openLimit: 250 * time.Millisecond,
	},
	{
		name: "dc-4k-stream",
		why:  "4 KiB values streamed in 128 KiB chunks over a 0.5 ms, 125 MiB/s link, where table build time is about wire time: overlap, copies and buffering show",
		keys: 200, valueSize: 4096, link: &dcLink, streamChunk: 128 << 10,
		writeFrac: 0.5, sessions: 2,
		openRate: 30, openLimit: 150 * time.Millisecond,
	},
}

func findWorkload(name string) (spec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return spec{}, false
}
