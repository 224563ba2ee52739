package harness

import (
	"bytes"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"

	"ortoa/internal/core"
	"ortoa/internal/crypto/prf"
	"ortoa/internal/crypto/secretbox"
	"ortoa/internal/fhe"
	"ortoa/internal/kvstore"
	"ortoa/internal/netsim"
	"ortoa/internal/obs"
	"ortoa/internal/tier"
	"ortoa/internal/transport"
)

// TestMetricInventory holds DESIGN.md §8 and the code to each other:
// one registry instruments one of everything a deployment can run — an
// LBL server with durability and admission control, its proxy behind an
// admission-controlled front end, an end-user router, and
// a TEE and an FHE pair — and every ortoa_* family it then exposes must
// be named in §8, exactly or by a `prefix_*` row, and every exact name
// in §8 must be exposed. A new metric is documented or the test fails;
// a renamed or deleted one takes its row with it. The store's families
// are listed by name, not by prefix, so §8 says what each one means —
// and the checkpoint trigger's input must read what the durable LBL
// store journaled.
func TestMetricInventory(t *testing.T) {
	reg := obs.NewRegistry()
	const valueSize = 16
	keys, data := prf.NewRandom(), secretbox.NewRandomKey()
	params, err := fhe.NewParameters(64, 220)
	if err != nil {
		t.Fatal(err)
	}
	admission := transport.AdmissionConfig{MaxInflight: 8, MaxQueue: 8}
	pair := func(sc tier.ServerConfig, pc tier.ProxyConfig) *tier.Proxy {
		t.Helper()
		sc.ValueSize, sc.Metrics, sc.TraceBuffer = valueSize, reg, 16
		srv, err := tier.NewServer(sc)
		if err != nil {
			t.Fatal(err)
		}
		ln := netsim.Listen(netsim.Loopback)
		go srv.Transport.Serve(ln) //nolint:errcheck // returns on Close
		t.Cleanup(func() { srv.Close() })
		pc.ValueSize, pc.PRF, pc.DataKey, pc.Metrics, pc.TraceBuffer = valueSize, keys, data, reg, 16
		px, err := tier.NewProxy(pc, ln.Dial)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { px.Close() })
		if srv.TEE != nil {
			if err := px.TEE.AttestAndProvision(srv.TEE.Enclave()); err != nil {
				t.Fatal(err)
			}
		}
		ek, rec, err := px.BuildRecord("k", make([]byte, valueSize))
		if err != nil {
			t.Fatal(err)
		}
		if err := core.BulkLoad(px.RPC, []core.KV{{Key: ek, Record: rec}}); err != nil {
			t.Fatal(err)
		}
		return px
	}

	lbl := pair(
		tier.ServerConfig{Protocol: tier.LBL, StateDir: t.TempDir(),
			Durability: kvstore.WALOptions{Policy: kvstore.SyncGroupCommit}, Admission: admission},
		tier.ProxyConfig{Protocol: tier.LBL, LBL: core.LBLConfig{Mode: core.LBLPointPermute}})
	front, err := lbl.NewFront(tier.FrontConfig{Admission: admission})
	if err != nil {
		t.Fatal(err)
	}
	fl := netsim.Listen(netsim.Loopback)
	go front.Transport.Serve(fl) //nolint:errcheck // returns on Close
	router, err := core.NewRouter([]core.RouterMember{{Name: "proxy-0", Dial: fl.Dial}}, core.RouterOptions{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { router.Close() })
	if _, _, err := router.Access(core.OpRead, "k", nil); err != nil {
		t.Fatalf("access through router, front end and LBL proxy: %v", err)
	}
	for name, px := range map[string]*tier.Proxy{
		"tee": pair(tier.ServerConfig{Protocol: tier.TEE}, tier.ProxyConfig{Protocol: tier.TEE}),
		"fhe": pair(tier.ServerConfig{Protocol: tier.FHE, FHE: core.FHEConfig{Params: params}},
			tier.ProxyConfig{Protocol: tier.FHE, FHE: core.FHEConfig{Params: params}}),
	} {
		if _, _, err := px.Accessor.Access(core.OpRead, "k", nil); err != nil {
			t.Fatalf("%s access: %v", name, err)
		}
	}

	if reg.Value("ortoa_kvstore_wal_bytes") == 0 {
		t.Error("ortoa_kvstore_wal_bytes reads 0 after the durable store journaled a load and an access")
	}

	var scrape bytes.Buffer
	if err := reg.WritePrometheus(&scrape); err != nil {
		t.Fatal(err)
	}
	var registered []string
	for _, line := range strings.Split(scrape.String(), "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[1] == "TYPE" && strings.HasPrefix(f[2], "ortoa_") {
			registered = append(registered, f[2])
		}
	}

	design, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(design), "\n## 8. ")
	if !ok {
		t.Fatal("DESIGN.md has no section 8")
	}
	section, _, _ = strings.Cut(section, "\n## ")
	exact, prefixes := map[string]bool{}, []string{}
	for _, m := range regexp.MustCompile("`(ortoa_[a-z0-9_]+)(\\*?)").FindAllStringSubmatch(section, -1) {
		if m[2] == "*" {
			prefixes = append(prefixes, m[1])
		} else {
			exact[m[1]] = true
		}
	}

	have := map[string]bool{}
	var undocumented, unregistered []string
	for _, name := range registered {
		have[name] = true
		covered := exact[name]
		for _, p := range prefixes {
			covered = covered || strings.HasPrefix(name, p)
		}
		if !covered {
			undocumented = append(undocumented, name)
		}
	}
	for name := range exact {
		if !have[name] {
			unregistered = append(unregistered, name)
		}
	}
	sort.Strings(unregistered)
	if len(undocumented) > 0 {
		t.Errorf("%d of %d registered families are not in DESIGN.md §8:\n  %s", len(undocumented), len(registered), strings.Join(undocumented, "\n  "))
	}
	if len(unregistered) > 0 {
		t.Errorf("DESIGN.md §8 names %d families the full deployment does not register:\n  %s", len(unregistered), strings.Join(unregistered, "\n  "))
	}
}
