package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ortoa/internal/core"
	"ortoa/internal/crypto/prf"
	"ortoa/internal/crypto/secretbox"
	"ortoa/internal/kvstore"
	"ortoa/internal/transport"
	"ortoa/internal/vfs"
	"ortoa/internal/wire"
)

// Per-layer readings taken by calling each layer's exported functions
// directly, at one value geometry. They say what a layer costs on its
// own; the boundary trace says how much of an access it is.

// cost is one operation's measured price.
type cost struct {
	ns, allocs, allocBytes float64
}

// measure calls op in batches for about budget and returns the median
// batch's time per call, and allocations per call over all batches.
func measure(budget time.Duration, op func() error) (cost, error) {
	batch := 1
	for {
		start := time.Now()
		for i := 0; i < batch; i++ {
			if err := op(); err != nil {
				return cost{}, err
			}
		}
		if time.Since(start) >= 200*time.Microsecond || batch >= 1<<20 {
			break
		}
		batch *= 2
	}
	var perCall []float64
	calls := 0
	heap0 := readHeapStats()
	for begin := time.Now(); time.Since(begin) < budget || len(perCall) < 3; {
		start := time.Now()
		for i := 0; i < batch; i++ {
			if err := op(); err != nil {
				return cost{}, err
			}
		}
		perCall = append(perCall, float64(time.Since(start))/float64(batch))
		calls += batch
	}
	heap1 := readHeapStats()
	sort.Float64s(perCall)
	return cost{
		ns:         percentile(perCall, 0.5),
		allocs:     (heap1.allocs - heap0.allocs) / float64(calls),
		allocBytes: (heap1.allocBytes - heap0.allocBytes) / float64(calls),
	}, nil
}

// layerBudget is the measuring time of each direct reading.
const layerBudget = 150 * time.Millisecond

// measureLayers fills ms with the direct readings for valueSize.
func measureLayers(ms readings, valueSize int, seed uint64, dir string) error {
	cfg := core.LBLConfig{ValueSize: valueSize, Mode: core.LBLPointPermute}
	f, err := prf.New(keysFromSeed(seed).PRFKey)
	if err != nil {
		return err
	}
	for _, layer := range []func(readings, core.LBLConfig, *prf.PRF, string) error{
		measureCrypto, measureKernels, measureWire, measureTransport, measureStore, measureAccess,
	} {
		if err := layer(ms, cfg, f, dir); err != nil {
			return err
		}
	}
	return nil
}

// measureCrypto reads prf and secretbox: one label, the whole label
// schedule of one access (per group 4 old and 4 new labels and 2
// permute words), and one table entry sealed, opened and rejected.
func measureCrypto(ms readings, cfg core.LBLConfig, f *prf.PRF, _ string) error {
	gen := f.LabelGen("bench")
	var ct uint64
	c, err := measure(layerBudget, func() error {
		ct++
		gen.Label(int(ct%64), uint8(ct%4), ct)
		return nil
	})
	if err != nil {
		return err
	}
	ms.set("prf.label_ns", "ns", c.ns)
	c, err = measure(layerBudget, func() error {
		ct++
		g := f.LabelGen("bench")
		for grp := 0; grp < cfg.Groups(); grp++ {
			for b := uint8(0); b < 4; b++ {
				g.Label(grp, b, ct)
				g.Label(grp, b, ct+1)
			}
			g.PermuteBits(grp, ct)
			g.PermuteBits(grp, ct+1)
		}
		return nil
	})
	if err != nil {
		return err
	}
	ms.set("prf.access_schedule_us", "us", c.ns/1e3)

	sealer := secretbox.NewLabelSealer()
	label, other := gen.Label(0, 0, 0), gen.Label(0, 1, 0)
	plain := make([]byte, prf.Size+1)
	slot := make([]byte, len(plain)+secretbox.LabelTagSize)
	c, err = measure(layerBudget, func() error { return sealer.SealInto(slot, label[:], plain) })
	if err != nil {
		return err
	}
	ms.set("secretbox.seal_ns", "ns", c.ns)
	hit, err := sealer.Opener(label[:])
	if err != nil {
		return err
	}
	miss, err := sealer.Opener(other[:])
	if err != nil {
		return err
	}
	c, err = measure(layerBudget, func() error { return hit.OpenInto(plain, slot) })
	if err != nil {
		return err
	}
	ms.set("secretbox.open_hit_ns", "ns", c.ns)
	c, err = measure(layerBudget, func() error {
		if miss.OpenInto(plain, slot) == nil {
			return fmt.Errorf("secretbox: opened an entry under the wrong label")
		}
		return nil
	})
	if err != nil {
		return err
	}
	ms.set("secretbox.open_miss_ns", "ns", c.ns)
	return nil
}

// measureKernels reads core's two CPU kernels without a transport:
// table build with one worker and with one per CPU, and the server's
// trial decryption plus the proxy's label recovery.
func measureKernels(ms readings, cfg core.LBLConfig, _ *prf.PRF, _ string) error {
	for _, k := range []struct {
		name    string
		workers int
	}{{"core.proxy.table_build", 1}, {"core.proxy.table_build_par", runtime.GOMAXPROCS(0)}} {
		kernel, err := core.NewTableBuildKernel(cfg, k.workers)
		if err != nil {
			return err
		}
		c, err := measure(layerBudget, kernel.Op)
		if err != nil {
			return err
		}
		ms.set(k.name+"_us", "us", c.ns/1e3)
		if k.workers == 1 {
			ms.set(k.name+"_allocs", "count", c.allocs)
			ms.set(k.name+"_alloc_bytes", "B", c.allocBytes)
		}
	}

	// Each Op consumes one prebuilt table, so time whole windows and
	// rebuild between them, outside the clock.
	const window = 8
	kernel, err := core.NewRecoverKernel(cfg, window, 1)
	if err != nil {
		return err
	}
	var perOp []float64
	for begin := time.Now(); time.Since(begin) < 2*layerBudget || len(perOp) < 3; {
		if err := kernel.Prepare(); err != nil {
			return err
		}
		start := time.Now()
		for i := 0; i < window; i++ {
			if err := kernel.Op(); err != nil {
				return err
			}
		}
		perOp = append(perOp, float64(time.Since(start))/window)
	}
	ms.set("core.proxy.recover_kernel_us", "us", median(perOp)/1e3)
	return nil
}

// measureWire reads wire: a request-sized message written through the
// pooled writer as the proxy does, and parsed as the server does.
func measureWire(ms readings, cfg core.LBLConfig, _ *prf.PRF, _ string) error {
	table := make([]byte, cfg.TableBytes())
	entryLen := uint64(cfg.TableBytes() / cfg.Groups() / 4)
	var payload []byte
	c, err := measure(layerBudget, func() error {
		w := wire.GetWriter(cfg.RequestBytesPerAccess())
		w.Raw(table[:prf.Size])
		w.Uint32(7)
		w.Uint64(1)
		w.Byte(byte(cfg.Mode))
		w.Uvarint(uint64(cfg.Groups()))
		w.Uvarint(entryLen)
		copy(w.Extend(len(table)), table)
		if payload == nil {
			payload = append(payload, w.Bytes()...)
		}
		wire.PutWriter(w)
		return nil
	})
	if err != nil {
		return err
	}
	ms.set("wire.encode_us", "us", c.ns/1e3)
	if len(payload) != cfg.RequestBytesPerAccess() {
		return fmt.Errorf("wire: encoded %d bytes, an access request has %d", len(payload), cfg.RequestBytesPerAccess())
	}
	c, err = measure(layerBudget, func() error {
		r := wire.NewReader(payload)
		r.Raw(prf.Size)
		r.Uint32()
		r.Uint64()
		r.Byte()
		r.Uvarint()
		r.Uvarint()
		r.Raw(len(table))
		return r.Finish()
	})
	if err != nil {
		return err
	}
	ms.set("wire.decode_us", "us", c.ns/1e3)
	return nil
}

// measureTransport reads transport: one call over loopback TCP whose
// request and response have an access's sizes and whose handler does
// nothing, so framing, copies, dedup and scheduling are all it costs.
func measureTransport(ms readings, cfg core.LBLConfig, _ *prf.PRF, _ string) error {
	const msgEcho = 0x7F
	request := make([]byte, cfg.RequestBytesPerAccess())
	response := make([]byte, cfg.Groups()*prf.Size)
	srv := transport.NewServer()
	srv.Handle(msgEcho, func(context.Context, []byte) ([]byte, error) { return response, nil })
	client, stop, err := serveLoopback(srv, 1)
	if err != nil {
		return err
	}
	defer stop()
	c, err := measure(2*layerBudget, func() error {
		_, err := client.Call(msgEcho, request)
		return err
	})
	if err != nil {
		return err
	}
	ms.set("transport.call_us", "us", c.ns/1e3)
	ms.set("transport.call_allocs", "count", c.allocs)
	ms.set("transport.call_alloc_bytes_per_payload_byte", "B/B", c.allocBytes/float64(len(request)+len(response)))
	return nil
}

// serveLoopback serves srv on loopback TCP and dials it.
func serveLoopback(srv *transport.Server, conns int) (*transport.Client, func(), error) {
	ln, dial, err := listenTCP()
	if err != nil {
		return nil, nil, err
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(ln)
	}()
	client, err := transport.Dial(dial, conns)
	if err != nil {
		srv.Close()
		<-done
		return nil, nil, err
	}
	return client, func() {
		client.Close()
		srv.Close()
		<-done
	}, nil
}

// countingFS counts what the WAL asks of the filesystem.
type countingFS struct {
	vfs.OS
	writeBytes, syncs atomic.Int64
}

type countingFile struct {
	vfs.File
	fs *countingFS
}

func (c *countingFS) OpenFile(name string, flag int, perm os.FileMode) (vfs.File, error) {
	f, err := c.OS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return countingFile{File: f, fs: c}, nil
}

func (f countingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.fs.writeBytes.Add(int64(n))
	return n, err
}

func (f countingFile) Sync() error {
	f.fs.syncs.Add(1)
	return f.File.Sync()
}

// measureStore reads kvstore: Put of one server record with no WAL,
// with a WAL that is never fsynced, and with group commit under 8
// concurrent putters, which is where a shared fsync has company.
func measureStore(ms readings, cfg core.LBLConfig, _ *prf.PRF, dir string) error {
	record := make([]byte, cfg.ServerBytesPerValue())
	keys := make([]string, 64)
	for i := range keys {
		keys[i] = fmt.Sprintf("record-%02d", i)
	}
	put := func(s *kvstore.Store) func() error {
		n := 0
		return func() error {
			n++
			return s.Put(keys[n%len(keys)], record)
		}
	}

	c, err := measure(layerBudget, put(kvstore.New()))
	if err != nil {
		return err
	}
	ms.set("kvstore.put_us", "us", c.ns/1e3)

	withWAL := func(policy kvstore.SyncPolicy, run func(*kvstore.Store, *countingFS) error) error {
		path := filepath.Join(dir, "layers.wal")
		defer os.Remove(path)
		s, fs := kvstore.New(), &countingFS{}
		if err := s.AttachWALOptions(path, kvstore.WALOptions{Policy: policy, FS: fs}); err != nil {
			return err
		}
		defer s.DetachWAL()
		return run(s, fs)
	}
	err = withWAL(kvstore.SyncNever, func(s *kvstore.Store, _ *countingFS) error {
		c, err := measure(layerBudget, put(s))
		ms.set("kvstore.put_wal_never_us", "us", c.ns/1e3)
		return err
	})
	if err != nil {
		return err
	}
	return withWAL(kvstore.SyncGroupCommit, func(s *kvstore.Store, fs *countingFS) error {
		const putters = 8
		var puts atomic.Int64
		var firstErr atomic.Pointer[error]
		start := time.Now()
		var wg sync.WaitGroup
		for p := 0; p < putters; p++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for n := p; time.Since(start) < 2*layerBudget; n += putters {
					if err := s.Put(keys[n%len(keys)], record); err != nil {
						firstErr.CompareAndSwap(nil, &err)
						return
					}
					puts.Add(1)
				}
			}()
		}
		wg.Wait()
		if e := firstErr.Load(); e != nil {
			return *e
		}
		elapsed, n := time.Since(start), float64(puts.Load())
		ms.set("kvstore.put_wal_group_us", "us", float64(elapsed.Microseconds())*putters/n)
		ms.set("kvstore.fsyncs_per_put", "count", float64(fs.syncs.Load())/n)
		ms.set("kvstore.wal_bytes_per_put", "B", float64(fs.writeBytes.Load())/n)
		return nil
	})
}

// measureAccess reads core end to end without a front end: LBLProxy.Access
// against an LBLServer over loopback TCP, alternating reads and writes.
func measureAccess(ms readings, cfg core.LBLConfig, f *prf.PRF, _ string) error {
	store := kvstore.New()
	srv := transport.NewServer()
	core.NewLBLServer(store).Register(srv)
	client, stop, err := serveLoopback(srv, 2)
	if err != nil {
		return err
	}
	defer stop()
	proxy, err := core.NewLBLProxy(cfg, f, client)
	if err != nil {
		return err
	}
	value := make([]byte, cfg.ValueSize)
	ek, rec, err := proxy.BuildRecord("bench", value)
	if err != nil {
		return err
	}
	if err := store.Put(ek, rec); err != nil {
		return err
	}
	n := 0
	c, err := measure(2*layerBudget, func() error {
		n++
		op := core.OpRead
		if n%2 == 0 {
			op = core.OpWrite
		}
		_, _, err := proxy.Access(op, "bench", value)
		return err
	})
	if err != nil {
		return err
	}
	ms.set("core.access_us", "us", c.ns/1e3)
	ms.set("core.access_allocs", "count", c.allocs)
	ms.set("core.access_alloc_bytes", "B", c.allocBytes)
	return nil
}
