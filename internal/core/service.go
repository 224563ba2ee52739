package core

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"ortoa/internal/kvstore"
	"ortoa/internal/transport"
	"ortoa/internal/wire"
)

// An Accessor performs one oblivious single-object access under the
// caller's context, its deadline and trace span: a read returns the
// stored value, a write (newValue exactly the value size) echoes it. The
// four protocol clients, the client→proxy RPC stub and the Router
// implement it, so workloads and experiments are written once.
type Accessor interface {
	AccessContext(ctx context.Context, op Op, key string, newValue []byte) ([]byte, error)
}

// A KV is one record for bulk loading.
type KV struct {
	Key    string // server-side (encoded) key
	Record []byte // opaque, protocol-encoded record
}

// RegisterLoader installs the MsgLoad bulk-load handler on ts, writing
// records into store. Records arrive pre-encoded by the trusted side,
// so one loader serves every protocol.
func RegisterLoader(ts *transport.Server, store *kvstore.Store) {
	ts.Handle(MsgLoad, loaderHandler(store))
}

func loaderHandler(store *kvstore.Store) transport.HandlerFunc {
	return func(_ context.Context, payload []byte) ([]byte, error) {
		batch, err := parseLoad(payload)
		if err != nil {
			return nil, err
		}
		// Durable-on-ack holds for bulk load too: a journaling failure
		// must fail the batch, not acknowledge records the WAL lost. The
		// batch waits for durability once, on its last record.
		if err := store.PutBatch(batch); err != nil {
			return nil, fmt.Errorf("core: load: %w", err)
		}
		return nil, nil
	}
}

// parseLoad parses a MsgLoad payload whole — a record count, then each
// record's key and bytes, length-prefixed — so a payload that fails to
// parse stores nothing. The values alias payload; PutBatch copies them.
func parseLoad(payload []byte) ([]kvstore.KV, error) {
	r := wire.NewReader(payload)
	n := r.Uvarint()
	if err := r.Err(); err != nil {
		return nil, err
	}
	// A record takes at least its two length bytes, so a count the rest
	// of the payload cannot hold is refused before anything is sized by
	// it: the peer does not choose how much this server allocates.
	if n > uint64(r.Remaining()/2) {
		return nil, fmt.Errorf("core: load: %d records cannot fit in %d bytes", n, r.Remaining())
	}
	batch := make([]kvstore.KV, n)
	for i := range batch {
		key, rec := r.BytesPfx(), r.BytesPfx()
		if err := r.Err(); err != nil {
			return nil, fmt.Errorf("core: load entry %d: %w", i, err)
		}
		batch[i] = kvstore.KV{Key: string(key), Value: rec}
	}
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return batch, nil
}

// Init is a pipeline bounded at every stage: records are built on every
// core, packed into frames of at most loadFrameBytes, and kept in flight
// loadFramesPerConn to a pooled connection. Both constants are measured
// (BenchmarkLoad/wan: 2,000 × 160 B values, 20.5 MB of LBL records, over
// a 21.84 ms, 12 MiB/s link and the default pool of four connections,
// whose floor is ≈0.41 s): 1,024-record frames sent one at a time took
// 1.81–1.91 s; 1 MiB frames 0.56–0.58 s one in flight a connection,
// 0.45 s two in flight and 0.45 s three; 256 KiB and 4 MiB frames two in
// flight 0.48 s and 0.68 s (EXPERIMENTS.md, "Init at the link's speed").
// With two, one frame is on the wire while the previous one's
// acknowledgement travels back; a third only queues behind them, and
// every frame in flight is memory at both ends.
const (
	loadFrameBytes    = 1 << 20
	loadFramesPerConn = 2
)

// BulkLoad sends n records to the server, building record i with
// build(i): GOMAXPROCS workers build, this goroutine packs the records
// into frames of at most loadFrameBytes (a frame always carries at least
// one record), and loadFramesPerConn frames per pooled connection are in
// flight at once. It holds only the frame being packed, the frames in
// flight and a few records built ahead of them — never every record.
//
// The first error, a record that fails to build or a frame the server
// refuses, is returned once the frames in flight are answered. No frame
// is sent after it is seen. The frames acknowledged before it stay
// stored, so a failed BulkLoad may have stored any part of the records.
func BulkLoad(client *transport.Client, n int, build func(i int) (KV, error)) error {
	l := &bulkLoad{
		client: client,
		slots:  make(chan struct{}, loadFramesPerConn*client.PoolSize()),
		stop:   make(chan struct{}),
	}
	workers := runtime.GOMAXPROCS(0)
	// One record a worker may wait while the packer copies another, so
	// building does not stall on packing.
	built := make(chan KV, workers)
	go func() {
		defer close(built)
		// Build errors go to l.fail, which stops every worker at its next
		// record, so fn itself never fails.
		_ = ForEach(n, workers, func(i int) error {
			if l.stopped() {
				return nil
			}
			kv, err := build(i)
			if err != nil {
				l.fail(err)
				return nil
			}
			select {
			case built <- kv:
			case <-l.stop:
			}
			return nil
		})
	}()
	// Each record is copied into its frame as it arrives, while it is
	// still in cache, and is garbage after. Keeping a frame's records
	// and copying them all at the cut made loading 10,000 × 160 B over
	// loopback TCP 30 % slower (411 against 316 ms, 8 of 8 pairs).
	var f loadFrame
	left := n
	for kv := range built {
		if !f.fits(kv) {
			l.send(f.payload())
			f = loadFrame{}
		}
		f.add(kv, left)
		left--
	}
	if f.n > 0 {
		l.send(f.payload())
	}
	l.sending.Wait()
	return l.err
}

// bulkLoad is one BulkLoad's sending side.
type bulkLoad struct {
	client  *transport.Client
	slots   chan struct{} // one token per frame in flight
	sending sync.WaitGroup

	stop chan struct{} // closed by the first error
	once sync.Once
	err  error
}

func (l *bulkLoad) fail(err error) {
	l.once.Do(func() {
		l.err = err
		close(l.stop)
	})
}

func (l *bulkLoad) stopped() bool {
	select {
	case <-l.stop:
		return true
	default:
		return false
	}
}

// send puts frame on the wire once a slot is free, unless the load has
// failed by then.
func (l *bulkLoad) send(frame []byte) {
	select {
	case l.slots <- struct{}{}:
	case <-l.stop:
		return
	}
	if l.stopped() {
		<-l.slots
		return
	}
	l.sending.Add(1)
	go func() {
		defer l.sending.Done()
		if _, err := l.client.Call(MsgLoad, frame); err != nil {
			l.fail(fmt.Errorf("core: bulk load: %w", err))
		}
		// The slot frees after the failure is recorded, so a frame
		// waiting for it sees the failure and is not sent.
		<-l.slots
	}()
}

// loadCountRoom is the headroom a loadFrame keeps for its record count,
// written once the frame is cut.
const loadCountRoom = binary.MaxVarintLen32

// A loadFrame packs records into one MsgLoad payload: a record count,
// then each record's key and bytes, length-prefixed.
type loadFrame struct {
	buf []byte // loadCountRoom bytes of headroom, then the records
	n   int
}

// fits reports whether kv joins the frame within loadFrameBytes; an
// empty frame takes any record.
func (f *loadFrame) fits(kv KV) bool {
	return f.n == 0 || len(f.buf)+loadEntryLen(kv) <= loadFrameBytes
}

// add appends kv, one of left records still to come. A new frame is
// allocated once, for the left records at kv's size up to
// loadFrameBytes, rather than grown record by record.
func (f *loadFrame) add(kv KV, left int) {
	if f.buf == nil {
		e := loadEntryLen(kv)
		f.buf = make([]byte, loadCountRoom, max(min(loadFrameBytes, loadCountRoom+left*e), loadCountRoom+e))
	}
	f.buf = binary.AppendUvarint(f.buf, uint64(len(kv.Key)))
	f.buf = append(f.buf, kv.Key...)
	f.buf = binary.AppendUvarint(f.buf, uint64(len(kv.Record)))
	f.buf = append(f.buf, kv.Record...)
	f.n++
}

// payload writes the record count just before the records and returns
// the frame's bytes.
func (f *loadFrame) payload() []byte {
	var count [loadCountRoom]byte
	k := binary.PutUvarint(count[:], uint64(f.n))
	start := loadCountRoom - k
	copy(f.buf[start:], count[:k])
	return f.buf[start:]
}

// loadEntryLen is kv's length in a load frame.
func loadEntryLen(kv KV) int {
	var b [binary.MaxVarintLen64]byte
	return binary.PutUvarint(b[:], uint64(len(kv.Key))) + len(kv.Key) +
		binary.PutUvarint(b[:], uint64(len(kv.Record))) + len(kv.Record)
}

// RegisterProxyService exposes accessor as the MsgClientAccess RPC, so
// untrusted-network clients can route requests through the proxy
// (§2.1's client→proxy→server deployment).
func RegisterProxyService(ts *transport.Server, accessor Accessor) {
	ts.Handle(MsgClientAccess, func(ctx context.Context, payload []byte) ([]byte, error) {
		r := wire.NewReader(payload)
		op := Op(r.Byte())
		key := r.String()
		value := r.BytesCopy()
		if err := r.Err(); err != nil {
			return nil, err
		}
		if err := r.Finish(); err != nil {
			return nil, err
		}
		if op != OpRead && op != OpWrite {
			return nil, fmt.Errorf("core: unknown op %d", op)
		}
		out, err := accessor.AccessContext(ctx, op, key, value)
		if err != nil {
			if transport.IsBusy(err) {
				// The proxy's own server round was shed before executing.
				// The busy prefix keeps the definite-but-backoff
				// classification intact across the hop, so a router backs
				// off this path instead of failing over on an ambiguity
				// that never existed.
				return nil, fmt.Errorf("%s%w", transport.BusyMsgPrefix, err)
			}
			if transport.Ambiguous(err) ||
				errors.Is(err, transport.ErrClosed) ||
				errors.Is(err, transport.ErrNoLiveConns) {
				// The proxy could not complete its own server round —
				// outcome unknown, or (closed pool, a proxy being torn
				// down) definitely not executed. Flattening to a plain
				// RemoteError would read as "executed, failed"; the
				// prefix keeps the client's classification honest across
				// the hop, and a multi-proxy router knows the access is
				// safe to retry on a peer.
				return nil, fmt.Errorf("%s%w", transport.AmbiguousMsgPrefix, err)
			}
			return nil, err
		}
		return out, nil
	})
}

// A RemoteAccessor is the client-side stub for a proxy reached over
// the network. It implements Accessor.
type RemoteAccessor struct {
	client *transport.Client
}

// NewRemoteAccessor wraps client as an Accessor.
func NewRemoteAccessor(client *transport.Client) *RemoteAccessor {
	return &RemoteAccessor{client: client}
}

// AccessContext sends the request to the proxy under ctx and returns its
// response.
func (a *RemoteAccessor) AccessContext(ctx context.Context, op Op, key string, newValue []byte) ([]byte, error) {
	w := wire.NewWriter(2 + len(key) + len(newValue) + 16)
	w.Byte(byte(op))
	w.String(key)
	w.BytesPfx(newValue)
	return a.client.CallContext(ctx, MsgClientAccess, w.Bytes())
}
