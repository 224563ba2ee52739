package core

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"

	"ortoa/internal/kvstore"
	"ortoa/internal/transport"
	"ortoa/internal/wire"
)

// An Accessor performs one oblivious single-object access. All four
// protocol clients (LBL, TEE, FHE, baseline) implement it, as does the
// client→proxy RPC stub, so workloads and experiments are written once.
type Accessor interface {
	Access(op Op, key string, newValue []byte) ([]byte, AccessStats, error)
}

// A ContextAccessor is an Accessor that can additionally thread a
// context through the access — cancellation plus the active trace
// span. The proxy front end type-asserts for it so an inbound traced
// request's span parents the whole proxy-side span tree.
type ContextAccessor interface {
	AccessContext(ctx context.Context, op Op, key string, newValue []byte) ([]byte, AccessStats, error)
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
		r := wire.NewReader(payload)
		n := int(r.Uvarint())
		if err := r.Err(); err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			key := r.BytesPfx()
			rec := r.BytesCopy()
			if err := r.Err(); err != nil {
				return nil, fmt.Errorf("core: load entry %d: %w", i, err)
			}
			// Durable-on-ack holds for bulk load too: a journaling failure
			// must fail the batch, not acknowledge records the WAL lost.
			if err := store.Put(string(key), rec); err != nil {
				return nil, fmt.Errorf("core: load entry %d: %w", i, err)
			}
		}
		if err := r.Finish(); err != nil {
			return nil, err
		}
		return nil, nil
	}
}

// bulkLoadRecords and bulkLoadBytes bound one MsgLoad frame: at most
// this many records, and — for records large enough that the count
// alone would overflow transport.MaxFrameSize — at most about this many
// bytes, half the frame limit.
const (
	bulkLoadRecords = 1024
	bulkLoadBytes   = transport.MaxFrameSize / 2
)

// BulkLoad sends records to the server in batches, cutting a batch at
// bulkLoadRecords records or bulkLoadBytes bytes, whichever comes
// first. A batch always carries at least one record.
func BulkLoad(client *transport.Client, records []KV) error {
	for len(records) > 0 {
		n, size := 0, 0
		for n < len(records) && n < bulkLoadRecords {
			rec := len(records[n].Key) + len(records[n].Record) + 2*binary.MaxVarintLen32
			if n > 0 && size+rec > bulkLoadBytes {
				break
			}
			n, size = n+1, size+rec
		}
		w := wire.NewWriter(size)
		w.Uvarint(uint64(n))
		for _, kv := range records[:n] {
			w.BytesPfx([]byte(kv.Key))
			w.BytesPfx(kv.Record)
		}
		if _, err := client.Call(MsgLoad, w.Bytes()); err != nil {
			return fmt.Errorf("core: bulk load: %w", err)
		}
		records = records[n:]
	}
	return nil
}

// RegisterProxyService exposes accessor as the MsgClientAccess RPC, so
// untrusted-network clients can route requests through the proxy
// (§2.1's client→proxy→server deployment).
func RegisterProxyService(ts *transport.Server, accessor Accessor) {
	ctxAccessor, _ := accessor.(ContextAccessor)
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
		var out []byte
		var err error
		if ctxAccessor != nil {
			out, _, err = ctxAccessor.AccessContext(ctx, op, key, value)
		} else {
			out, _, err = accessor.Access(op, key, value)
		}
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

// Access sends the request to the proxy and returns its response.
func (a *RemoteAccessor) Access(op Op, key string, newValue []byte) ([]byte, AccessStats, error) {
	w := wire.NewWriter(2 + len(key) + len(newValue) + 16)
	w.Byte(byte(op))
	w.String(key)
	w.BytesPfx(newValue)
	var stats AccessStats
	stats.PrepBytes = w.Len()
	resp, err := a.client.Call(MsgClientAccess, w.Bytes())
	if err != nil {
		return nil, stats, err
	}
	stats.RespBytes = len(resp)
	return resp, stats, nil
}
