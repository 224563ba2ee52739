// Package ortoa is a Go implementation of ORTOA, a family of one
// round trip protocols for operation-type obliviousness (Maiyya et
// al., EDBT 2024).
//
// An ORTOA deployment is an encrypted key-value store whose untrusted
// server cannot tell whether any given client access is a read or a
// write: every access reads and replaces the stored record in one
// round trip. Three protocol variants trade trust assumptions:
//
//   - ProtocolLBL (§5): a garbled-circuit-inspired label encoding.
//     No special hardware, no homomorphic encryption; requires a
//     stateful trusted proxy holding per-key access counters.
//   - ProtocolTEE (§4): the selection runs inside a (simulated)
//     trusted enclave at the server. Fastest, but trusts enclave
//     hardware.
//   - ProtocolFHE (§3): the selection is evaluated homomorphically
//     with BFV. One round, but noise growth makes it impractical
//     after a handful of accesses per object — included because the
//     paper includes it, measured by the fhe-noise experiment.
//   - ProtocolBaseline2RTT (§6): read-then-write over two rounds,
//     the state of the art ORTOA halves.
//
// The top-level package exposes the deployment-facing API: Server
// hosts the untrusted store, Client is the trusted side (proxy or
// key-holding client) issuing oblivious reads and writes. The
// simulation substrates (WAN links, enclaves, BFV) and the experiment
// harness live under internal/.
//
// A minimal deployment:
//
//	keys := ortoa.GenerateKeys()
//	server, _ := ortoa.NewServer(ortoa.ServerConfig{Protocol: ortoa.ProtocolLBL, ValueSize: 160})
//	go server.Serve(listener)
//
//	client, _ := ortoa.NewClient(ortoa.ClientConfig{
//		Protocol: ortoa.ProtocolLBL, ValueSize: 160, Keys: keys,
//	}, dial)
//	client.Load(initialData)
//	v, _ := client.Read("account-17")
//	client.Write("account-17", newBalance)
//
// Load is the paper's Init. It builds records on every core and sends
// them in batches of at most 1 MiB, two in flight on each pooled
// connection, so it holds the batches in flight and never every record.
// It checks every value's length before it sends anything. A later
// failure — a batch the server refuses, a connection lost — is returned
// once the batches in flight are answered, and no batch is sent after
// it. Batches acknowledged before it stay stored; Keys is unchanged, and
// loading the same data again is safe.
//
// Beyond single accesses, the package provides ReadBatch/WriteBatch
// pipelining, ReadRange over the trusted-side key directory (§8.2),
// ShardedClient scale-out (§6.2.4), durable server state (a state
// directory that checkpoints itself, Server.OpenState), LBL
// proxy-state persistence, and Recommend,
// which evaluates the paper's §6.3.2 protocol-selection rule for a
// deployment's link and value size.
//
// See examples/ for runnable programs and DESIGN.md / EXPERIMENTS.md
// for the reproduction methodology.
package ortoa
