package harness

import (
	"bytes"
	"errors"
	"net"
	"sort"
	"strings"
	"testing"
	"time"

	"ortoa"
	"ortoa/internal/core"
	"ortoa/internal/crypto/prf"
	"ortoa/internal/fhe"
	"ortoa/internal/kvstore"
	"ortoa/internal/netsim"
	"ortoa/internal/obs"
	"ortoa/internal/tier"
	"ortoa/internal/transport"
)

// TestRestartedTiersKeepReporting pins the rebuilt-tier bugfix: a shard
// server and a proxy rebuilt against the cluster's registry are
// instrumented like the first ones, so the counters they feed keep
// advancing after the restart, and the scrape-time gauges of the dead
// instance are not summed into its replacement's.
func TestRestartedTiersKeepReporting(t *testing.T) {
	val := func(b byte) []byte { return bytes.Repeat([]byte{b}, 16) }
	touch := func(t *testing.T, c *Cluster, b byte) {
		t.Helper()
		for k := range c.cfg.Data {
			if _, err := readBack(c, k); err != nil {
				t.Fatalf("read %q: %v", k, err)
			}
			if _, _, err := c.Access(core.OpWrite, k, val(b)); err != nil {
				t.Fatalf("write %q: %v", k, err)
			}
		}
	}
	advanced := func(t *testing.T, reg *obs.Registry, before map[string]int64) {
		t.Helper()
		for name, was := range before {
			if now := reg.Value(name); now <= was {
				t.Errorf("%s froze across the restart: %d before, %d after fresh traffic", name, was, now)
			}
		}
	}
	snapshot := func(reg *obs.Registry, names ...string) map[string]int64 {
		m := make(map[string]int64, len(names))
		for _, n := range names {
			m[n] = reg.Value(n)
		}
		return m
	}

	t.Run("shard", func(t *testing.T) {
		reg := obs.NewRegistry()
		data := map[string][]byte{"ka": val(0), "kb": val(0), "kc": val(0)}
		cfg := durableClusterConfig(data, kvstore.SyncGroupCommit)
		cfg.Metrics = reg
		cluster, err := NewCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer cluster.Close()
		touch(t, cluster, 1)
		for restart := 0; restart < 2; restart++ {
			if err := cluster.Restart(0); err != nil {
				t.Fatal(err)
			}
			before := snapshot(reg,
				`ortoa_transport_server_frames_total{dir="in"}`, // handle-backed, transport server
				"ortoa_lbl_server_ops_total",                    // func-backed, LBL server
				"ortoa_kvstore_wal_appends_total")               // handle-backed, store
			touch(t, cluster, byte(2+restart))
			advanced(t, reg, before)
			if got := reg.Value("ortoa_kvstore_records"); got != int64(len(data)) {
				t.Errorf("after restart %d: ortoa_kvstore_records = %d, want %d (a retired store still reporting?)", restart+1, got, len(data))
			}
		}
		if got, want := reg.Value("ortoa_kvstore_wal_replayed_records_total"), cluster.WALReplayedTotal(); got != want {
			t.Errorf("ortoa_kvstore_wal_replayed_records_total = %d, want the cluster's total %d (retired stores' final counts kept)", got, want)
		}
	})

	t.Run("proxy", func(t *testing.T) {
		reg := obs.NewRegistry()
		cluster := newFailoverCluster(t, reg)
		touch(t, cluster, 6)
		calls := reg.Value("ortoa_transport_client_calls_total")
		// Restart every proxy: from here on only rebuilt proxies serve.
		for i := 0; i < cluster.Proxies(); i++ {
			if err := cluster.RestartProxy(i); err != nil {
				t.Fatal(err)
			}
		}
		// A retired pool's scrape-time count is kept, not dropped.
		if got := reg.Value("ortoa_transport_client_calls_total"); got != calls {
			t.Errorf("ortoa_transport_client_calls_total = %d after restarting every proxy, want the %d calls made before", got, calls)
		}
		before := snapshot(reg,
			"ortoa_lbl_round_accesses_total",                 // handle-backed, LBL proxy
			"ortoa_lbl_reconciled_keys_total",                // handle-backed, fed by the reborn proxies' rebases
			"ortoa_transport_client_calls_total",             // func-backed, pool
			`ortoa_transport_server_frames_total{dir="out"}`) // front ends and shard server
		touch(t, cluster, 7)
		advanced(t, reg, before)
	})
}

// TestTierWiringParity builds the same deployment twice — as
// harness.Cluster (or, for FHE, as the harness's FHE rig does, straight
// from the tier constructors) and through the public ortoa facade — and
// checks the two are wired alike: the server tiers and the front ends
// answer the same message types, the registries hold the same metric
// families, and both sides' shape auditors are armed.
func TestTierWiringParity(t *testing.T) {
	const valueSize = 16
	type deployment struct {
		reg    *obs.Registry
		server func() (net.Conn, error)
		front  func() (net.Conn, error) // nil without a front end
	}
	facade := func(t *testing.T, p ortoa.Protocol, front bool) deployment {
		d := deployment{reg: obs.NewRegistry()}
		srv, err := ortoa.NewServer(ortoa.ServerConfig{
			Protocol: p, ValueSize: valueSize, FHE: ortoa.FHEOptions{RingDegree: 64, ModulusBits: 220},
			Metrics: d.reg, TraceBuffer: 16,
		})
		if err != nil {
			t.Fatal(err)
		}
		ln := netsim.Listen(netsim.Loopback)
		go srv.Serve(ln) //nolint:errcheck // returns on Close
		t.Cleanup(func() { srv.Close() })
		client, err := ortoa.NewClient(ortoa.ClientConfig{
			Protocol: p, ValueSize: valueSize, Keys: ortoa.GenerateKeys(), FHE: ortoa.FHEOptions{RingDegree: 64, ModulusBits: 220},
			Metrics: d.reg, TraceBuffer: 16,
		}, ln.Dial)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { client.Close() })
		d.server = ln.Dial
		if front {
			fl := netsim.Listen(netsim.Loopback)
			go client.ServeProxy(fl) //nolint:errcheck // returns on Close
			d.front = fl.Dial
		}
		return d
	}
	cluster := func(t *testing.T, sys System, proxies int) deployment {
		d := deployment{reg: obs.NewRegistry()}
		c, err := NewCluster(Config{
			System: sys, Link: netsim.Loopback, ValueSize: valueSize, Proxies: proxies,
			Data: map[string][]byte{"k": make([]byte, valueSize)}, Metrics: d.reg, TraceBuffer: 16,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)
		d.server = c.shards[0].dial
		if proxies > 0 {
			d.front = func() (net.Conn, error) { return c.proxies[0].listener.Load().Dial() }
		}
		return d
	}
	fheRig := func(t *testing.T) deployment {
		d := deployment{reg: obs.NewRegistry()}
		params, err := fhe.NewParameters(64, 220)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := tier.NewServer(tier.ServerConfig{
			Protocol: tier.FHE, ValueSize: valueSize, FHE: core.FHEConfig{Params: params}, Metrics: d.reg, TraceBuffer: 16,
		})
		if err != nil {
			t.Fatal(err)
		}
		ln := netsim.Listen(netsim.Loopback)
		go srv.Transport.Serve(ln) //nolint:errcheck // returns on Close
		t.Cleanup(func() { srv.Close() })
		px, err := tier.NewProxy(tier.ProxyConfig{
			Protocol: tier.FHE, ValueSize: valueSize, PRF: prf.NewRandom(), FHE: core.FHEConfig{Params: params},
			Metrics: d.reg, TraceBuffer: 16,
		}, ln.Dial)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { px.Close() })
		d.server = ln.Dial
		return d
	}

	// handled probes every message type with an empty payload and
	// returns the ones some handler answered (with whatever decode
	// error), as opposed to the transport's "no handler" reply.
	handled := func(t *testing.T, dial func() (net.Conn, error)) []byte {
		t.Helper()
		c, err := transport.DialOptions(dial, transport.Options{PoolSize: 1, CallTimeout: 2 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		var types []byte
		for mt := byte(1); mt < 0x20; mt++ {
			_, err := c.Call(mt, nil)
			var re *transport.RemoteError
			if errors.As(err, &re) && strings.HasPrefix(re.Msg, "no handler for message type") {
				continue
			}
			types = append(types, mt)
		}
		return types
	}
	// families lists the registry's ortoa_* metric families, leaving out
	// the end-user router's, which only the harness deploys.
	families := func(t *testing.T, reg *obs.Registry) []string {
		t.Helper()
		var buf bytes.Buffer
		if err := reg.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, line := range strings.Split(buf.String(), "\n") {
			f := strings.Fields(line)
			if len(f) == 4 && f[1] == "TYPE" && strings.HasPrefix(f[2], "ortoa_") && !strings.HasPrefix(f[2], "ortoa_router_") {
				out = append(out, f[2])
			}
		}
		sort.Strings(out)
		return out
	}

	cases := []struct {
		name    string
		harness func(t *testing.T) deployment
		facade  func(t *testing.T) deployment
		server  []byte // the message types the server tier must answer
	}{
		{"lbl",
			func(t *testing.T) deployment { return cluster(t, SystemLBL, 1) },
			func(t *testing.T) deployment { return facade(t, ortoa.ProtocolLBL, true) },
			[]byte{core.MsgLoad, core.MsgLBLAccess}},
		{"tee",
			func(t *testing.T) deployment { return cluster(t, SystemTEE, 0) },
			func(t *testing.T) deployment { return facade(t, ortoa.ProtocolTEE, false) },
			[]byte{core.MsgLoad, core.MsgTEEAccess, core.MsgTEEAttest, core.MsgTEEProvision}},
		{"2rtt",
			func(t *testing.T) deployment { return cluster(t, SystemBaseline, 0) },
			func(t *testing.T) deployment { return facade(t, ortoa.ProtocolBaseline2RTT, false) },
			[]byte{core.MsgLoad, core.MsgBaselineGet, core.MsgBaselinePut}},
		{"fhe",
			fheRig,
			func(t *testing.T) deployment { return facade(t, ortoa.ProtocolFHE, false) },
			[]byte{core.MsgLoad, core.MsgFHEAccess}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h, f := tc.harness(t), tc.facade(t)
			// Metrics and auditors first: the garbage the message-type
			// probe sends below is itself a shape violation.
			hfam, ffam := families(t, h.reg), families(t, f.reg)
			if strings.Join(hfam, "\n") != strings.Join(ffam, "\n") {
				t.Errorf("metric families differ:\nharness: %v\nfacade:  %v", hfam, ffam)
			}
			for side, reg := range map[string]*obs.Registry{"harness": h.reg, "facade": f.reg} {
				armed := map[string]bool{}
				for _, check := range reg.CheckHealth() {
					armed[check.Name] = true
				}
				if !armed["shape_server"] || !armed["shape_proxy"] {
					t.Errorf("%s: shape auditors not armed on both sides (health checks %v)", side, armed)
				}
				if vp, vs := shapeViolations(reg); vp+vs != 0 {
					t.Errorf("%s: shape violations proxy=%d server=%d", side, vp, vs)
				}
			}
			hs, fs := handled(t, h.server), handled(t, f.server)
			if !bytes.Equal(hs, tc.server) || !bytes.Equal(fs, tc.server) {
				t.Errorf("server tiers answer message types %x (harness) and %x (facade), want %x", hs, fs, tc.server)
			}
			if (h.front == nil) != (f.front == nil) {
				t.Fatalf("front ends differ: harness %v, facade %v", h.front != nil, f.front != nil)
			}
			if h.front != nil {
				hf, ff := handled(t, h.front), handled(t, f.front)
				if want := []byte{core.MsgClientAccess}; !bytes.Equal(hf, want) || !bytes.Equal(ff, want) {
					t.Errorf("front ends answer message types %x (harness) and %x (facade), want %x", hf, ff, want)
				}
			}
		})
	}
}
