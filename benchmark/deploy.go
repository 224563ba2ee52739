package main

import (
	"encoding/binary"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"

	"ortoa"
	"ortoa/internal/core"
	"ortoa/internal/netsim"
	"ortoa/internal/workload"
)

// A deployment is the three tiers of one workload in this process,
// built through the public API only: end user → (loopback TCP, 2
// pipelined connections) → trusted proxy → (loopback TCP or a netsim
// link) → untrusted server.
type deployment struct {
	server  *ortoa.Server
	proxy   *ortoa.Client
	user    *ortoa.ProxyClient
	walPath string // "" unless the workload is durable
	serving sync.WaitGroup
	closing sync.Once
}

// userConns is the end user's connection count to the proxy: one per
// CPU of the host the workloads were sized on.
const userConns = 2

// loadSliceBytes bounds the records one Client.Load call carries.
// core.BulkLoad batches by record count, not bytes, so 1,024 records
// of a large value overflow transport.MaxFrameSize; slicing the load
// here stays under it (README, known findings).
const loadSliceBytes = 32 << 20

func keysFromSeed(seed uint64) ortoa.Keys {
	raw := make([]byte, 48)
	x := seed
	for i := 0; i < len(raw); i += 8 {
		x = splitmix64(x)
		binary.LittleEndian.PutUint64(raw[i:], x)
	}
	return ortoa.Keys{PRFKey: raw[:32], DataKey: raw[32:]}
}

// deploy brings the tiers up, loads version 0 of every key and returns
// after the first verified access. rec, when non-nil, stamps the tier
// boundaries; dir holds the WAL of a durable workload.
func deploy(w spec, protocol ortoa.Protocol, m *model, rec *recorder, dir string) (d *deployment, err error) {
	d = &deployment{}
	defer func() {
		if err != nil {
			d.close()
		}
	}()

	d.server, err = ortoa.NewServer(ortoa.ServerConfig{Protocol: protocol, ValueSize: w.valueSize})
	if err != nil {
		return nil, err
	}
	if w.durable {
		d.walPath = filepath.Join(dir, "server.wal")
		if err := d.server.AttachWALPolicy(d.walPath, ortoa.FsyncGroupCommit, 0); err != nil {
			return nil, err
		}
	}
	var serverLn net.Listener
	var dialServer func() (net.Conn, error)
	if w.link != nil {
		l := netsim.Listen(*w.link)
		serverLn, dialServer = l, l.Dial
	} else {
		serverLn, dialServer, err = listenTCP()
		if err != nil {
			return nil, err
		}
	}
	d.serve(func() { d.server.Serve(rec.wrapListener(serverLn, atServer)) })

	cfg := ortoa.ClientConfig{Protocol: protocol, ValueSize: w.valueSize, Keys: keysFromSeed(m.seed)}
	opts := ortoa.ProxyServeOptions{}
	if protocol == ortoa.ProtocolLBL {
		cfg.LBLVariant = ortoa.LBLPointPermute
		cfg.StreamChunk = w.streamChunk
		opts.AggWindow = w.aggWindow
	}
	d.proxy, err = ortoa.NewClient(cfg, rec.wrapDial(dialServer, atProxyOut))
	if err != nil {
		return nil, err
	}
	recordBytes := core.LBLConfig{ValueSize: w.valueSize, Mode: core.LBLPointPermute}.ServerBytesPerValue()
	per := max(1, loadSliceBytes/recordBytes)
	for start := 0; start < w.keys; start += per {
		slice := make(map[string][]byte, per)
		for k := start; k < min(start+per, w.keys); k++ {
			slice[workload.Key(k)] = m.value(k, 0)
		}
		if err := d.proxy.Load(slice); err != nil {
			return nil, fmt.Errorf("load: %w", err)
		}
	}

	frontLn, dialProxy, err := listenTCP()
	if err != nil {
		return nil, err
	}
	d.serve(func() { d.proxy.ServeProxyOptions(rec.wrapListener(frontLn, atFrontEnd), opts) })
	d.user, err = ortoa.DialProxyOptions(dialProxy, userConns, ortoa.ProxyOptions{})
	if err != nil {
		return nil, err
	}
	got, err := d.user.Read(workload.Key(0))
	if err != nil {
		return nil, fmt.Errorf("first access: %w", err)
	}
	if !m.current(0, got) {
		return nil, fmt.Errorf("first access returned a wrong value")
	}
	return d, nil
}

func (d *deployment) serve(f func()) {
	d.serving.Add(1)
	go func() {
		defer d.serving.Done()
		f()
	}()
}

func listenTCP() (net.Listener, func() (net.Conn, error), error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	addr := l.Addr().String()
	return l, func() (net.Conn, error) { return net.Dial("tcp", addr) }, nil
}

// close tears the tiers down front to back and waits for their accept
// loops to return. Later calls do nothing.
func (d *deployment) close() {
	d.closing.Do(func() {
		if d.user != nil {
			d.user.Close()
		}
		if d.proxy != nil {
			d.proxy.Close()
		}
		if d.server != nil {
			d.server.Close()
			if d.walPath != "" {
				d.server.DetachWAL()
				os.Remove(d.walPath)
			}
		}
		d.serving.Wait()
	})
}

// walSize is the WAL file's current length; 0 without a WAL.
func (d *deployment) walSize() int64 {
	if d.walPath == "" {
		return 0
	}
	st, err := os.Stat(d.walPath)
	if err != nil {
		return 0
	}
	return st.Size()
}
