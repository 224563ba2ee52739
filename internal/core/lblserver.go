package core

import (
	"bytes"
	"context"
	"crypto/subtle"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"ortoa/internal/crypto/prf"
	"ortoa/internal/crypto/secretbox"
	"ortoa/internal/kvstore"
	"ortoa/internal/obs"
	"ortoa/internal/obs/trace"
	"ortoa/internal/transport"
	"ortoa/internal/wire"
)

// An LBLServer is the untrusted side of LBL-ORTOA: it stores one
// secret label per bit group and the record's verifier and, per access,
// decrypts exactly the table entries its stored labels open, installing
// the recovered new labels and the next verifier (steps 2.1–2.2 of
// §5.2). It learns nothing about the operation type:
// reads and writes present identical work.
type LBLServer struct {
	store *kvstore.Store
	mx    lblServerObs

	ops             atomic.Int64
	decryptAttempts atomic.Int64

	// expiredRounds counts accesses dropped because their propagated
	// deadline budget ran out before trial decryption (DESIGN.md §15).
	expiredRounds atomic.Int64
}

// NewLBLServer returns a server over store.
func NewLBLServer(store *kvstore.Store) *LBLServer {
	return &LBLServer{store: store}
}

// Register installs the LBL access handler on ts.
func (s *LBLServer) Register(ts *transport.Server) {
	ts.Handle(MsgLBLAccess, s.handleAccess)
}

// Ops returns the number of accesses served.
func (s *LBLServer) Ops() int64 { return s.ops.Load() }

// DecryptAttempts returns the cumulative number of authenticated
// decryptions attempted — the server-compute quantity the
// point-and-permute optimization halves (§10.2).
func (s *LBLServer) DecryptAttempts() int64 { return s.decryptAttempts.Load() }

// lblRecord is the parsed server-side state for one object.
type lblRecord struct {
	labels   []byte // groups × prf.Size
	verifier []byte // verifierLen: which counter the labels are at (reconcile.go)
}

// parseLBLRecord splits raw, a stored record, into its labels and
// verifier, provided it is a record in cfg's mode and size.
func parseLBLRecord(raw []byte, cfg LBLConfig) (lblRecord, error) {
	if len(raw) < 1 {
		return lblRecord{}, errors.New("core: empty LBL record")
	}
	if raw[0]>>modeBits != recordFormat {
		return lblRecord{}, errRecordFormat
	}
	if mode := LBLMode(raw[0] & (1<<modeBits - 1)); mode != cfg.Mode {
		return lblRecord{}, fmt.Errorf("core: record mode %v does not match request mode %v", mode, cfg.Mode)
	}
	if len(raw) != cfg.ServerBytesPerValue() {
		return lblRecord{}, fmt.Errorf("core: LBL record %d bytes, want %d", len(raw), cfg.ServerBytesPerValue())
	}
	var rec lblRecord
	rec.labels, rec.verifier = cfg.recordParts(raw)
	return rec, nil
}

// maxGroups bounds the group count a request may name.
const maxGroups = 1 << 22

// errEntryFormat refuses a request of another exchange version (see
// entryFormat): proxy and server are different releases. Constant text
// like every other rejection.
var errEntryFormat = errors.New("core: table entry format mismatch: proxy and server must run the same release")

// errRecordFormat refuses a request against a stored record of another
// record format (see recordFormat): the record was written by a release
// with another label schedule, which no table this proxy builds can
// open. Definite, so no rebase chases a counter that is not there.
var errRecordFormat = errors.New("core: stored record format mismatch: records written by another release must be reloaded")

// readSegHeader consumes one request segment's header from r: the
// encoded key, the reserved bytes (skipped unread), and the configuration
// the header names — its mode, and the value size its group count makes,
// which must be whole bytes.
func readSegHeader(r *wire.Reader) (encKey []byte, cfg LBLConfig, err error) {
	encKey = r.Raw(prf.Size)
	r.Raw(reservedLen)
	mode := r.Byte()
	groups := r.Uvarint()
	entryLen := r.Uvarint()
	if err := r.Err(); err != nil {
		return nil, cfg, err
	}
	if mode>>modeBits != entryFormat {
		return nil, cfg, errEntryFormat
	}
	cfg.Mode = LBLMode(mode & (1<<modeBits - 1))
	if err := checkMode(cfg.Mode); err != nil {
		return nil, cfg, err
	}
	bits := groups * uint64(cfg.Mode.Y())
	if groups == 0 || groups > maxGroups || bits%8 != 0 {
		return nil, cfg, fmt.Errorf("core: implausible group count %d", groups)
	}
	cfg.ValueSize = int(bits / 8)
	if entryLen != uint64(cfg.Mode.entryLen()) {
		return nil, cfg, fmt.Errorf("core: entry length %d, want %d", entryLen, cfg.Mode.entryLen())
	}
	return encKey, cfg, nil
}

// Response slot statuses. A response is one fixed-width slot per
// request segment — a status, y bits per group, a 16-byte digest — so
// what happened to each key never shows in a length. On success the
// fields name the entry the server opened in each group and the digest
// is the XOR of the labels it installed; on slotStale the fields are zero
// and the digest's place holds the verifier of the record the store
// holds; otherwise the body is zero. The proxy's recovery ladder runs on
// the codes; slotError turns a failure back into the constant-text error
// callers and relays classify.
const (
	slotOK byte = iota
	// slotNotFound: the store was not initialized with this key.
	slotNotFound
	// slotStale: the table is not keyed at the record's counter (the
	// verifier it expects is not the record's, or an entry the stored
	// labels should open does not), or the record moved while the table
	// was being decrypted. Out of all rounds ever built for a key at one
	// counter, at most one applies. The verifier it carries tells the
	// proxy which counter the record is at (reconcile.go).
	slotStale
	// Status 3 is unassigned, so the statuses after it keep their
	// numbers; like any unassigned status it reads as unknown, which is
	// tampering (slotError).
	_
	// slotExpired: the deadline budget ran out before the key's labels
	// were installed (DESIGN.md §15).
	slotExpired
	// slotRejected: the record and the request disagree (mode or size),
	// or the store could not journal the update.
	slotRejected
	// slotRecordFormat: the stored record is of another record format
	// (recordFormat), written by another release. Checked before any
	// trial decryption, so it is never answered stale.
	slotRecordFormat
)

// staleTableMarker, like the expiry markers, is the constant text a
// stale rejection carries across relays.
const staleTableMarker = "stale access table"

var (
	errStaleTable  = errors.New("core: " + staleTableMarker + ": record is not at this table's counter")
	errRejected    = errors.New("core: access rejected: record does not match the request")
	errSlotUnknown = fmt.Errorf("%w: unknown response status", ErrTampered)
)

// slotError returns the error a response slot's status stands for, nil
// for slotOK. The record is untouched in every failure case. Failures
// are RemoteErrors with constant texts — no key or counter values —
// exactly what a relay one hop up would forward.
func slotError(status byte) error {
	var err error
	switch status {
	case slotOK:
		return nil
	case slotNotFound:
		err = ErrNotFound
	case slotStale:
		err = errStaleTable
	case slotExpired:
		err = errExpiredRound
	case slotRejected:
		err = errRejected
	case slotRecordFormat:
		err = errRecordFormat
	default:
		return errSlotUnknown
	}
	return &transport.RemoteError{Msg: err.Error()}
}

// IsStaleRound reports whether err is the server's stale rejection: an
// access table keyed at a counter whose labels the server has already
// replaced. One that reaches a caller surfaced through every recovery
// layer — another proxy serving the same key kept advancing its record
// past each rebase until the round's recovery allowance ran out. The
// round demonstrably did not execute (the server refuses before
// installing anything), so callers may simply retry the operation.
func IsStaleRound(err error) bool {
	var re *transport.RemoteError
	return errors.As(err, &re) && strings.Contains(re.Msg, staleTableMarker)
}

// expiredRoundMarker tags the server's deadline drops: the request's
// propagated budget (frame header, DESIGN.md §15) ran out before trial
// decryption began, so the round was dropped without touching the
// record — a definite, retryable non-execution. Constant text, like
// the staleness marker, so rejections carry no request-specific
// information.
const expiredRoundMarker = "deadline budget expired before decrypt"

var errExpiredRound = errors.New("core: " + expiredRoundMarker)

// expiredBuildMarker is the proxy-side analogue of expiredRoundMarker:
// the caller's deadline passed before the access table was built, so
// nothing was ever sent. One constant error value, so the rejection
// carries no request-specific information.
const expiredBuildMarker = "deadline expired before table build; access not sent"

var errDeadlineBeforeBuild = errors.New("core: " + expiredBuildMarker)

// IsDeadlineExpired reports whether err is a deadline-budget drop —
// the proxy refusing to build a table for a dead caller, or the server
// dropping an expired-on-arrival round before trial decryption
// (locally or relayed as a RemoteError). Either way the access
// demonstrably did not execute; callers may retry with a fresh
// deadline.
func IsDeadlineExpired(err error) bool {
	if errors.Is(err, errDeadlineBeforeBuild) || errors.Is(err, errExpiredRound) {
		return true
	}
	var re *transport.RemoteError
	return errors.As(err, &re) &&
		(strings.Contains(re.Msg, expiredRoundMarker) || strings.Contains(re.Msg, expiredBuildMarker))
}

// recPool recycles server-side record buffers: each successful access
// displaces the store's previous record slice — same length, exclusively
// ours once the update commits — which becomes a later access's
// new-record buffer. Steady-state record churn then allocates nothing.
var recPool = sync.Pool{New: func() any { return new([]byte) }}

// decryptRange executes step 2.1 of §5.2 for groups [g0, g1): decrypt
// the table entries rec's stored labels open, writing the recovered new
// labels into newLabels at absolute group offsets, the index of the entry
// each group opened into fields — zeroed, laid out as a value's bits are
// — and the XOR of the new labels into digest. table holds exactly those
// groups' entries (table[0] is group g0's); sealer is the caller's, for
// this call alone. Returns the number of decryptions attempted and
// whether every group opened; a group none of whose entries opens means
// the table is not keyed at the record's labels.
func decryptRange(mode LBLMode, sealer *secretbox.LabelSealer, rec *lblRecord, table []byte, g0, g1 int, newLabels, fields []byte, digest *labelDigest) (attempts int64, ok bool) {
	if mode.permute() {
		decryptPermuteRange(sealer, rec, table, g0, g1, newLabels, fields, digest)
		return int64(g1 - g0), true
	}
	// Try each shuffled entry; the recognition tag identifies the one our
	// label opens (§5.2 step 2.1). Every trial opens under the same stored
	// label, so the pad is derived once and each trial is a tag comparison.
	entryLen, nEntries := mode.entryLen(), mode.entries()
	for g := g0; g < g1; g++ {
		stored := rec.labels[g*prf.Size : (g+1)*prf.Size]
		entries := table[(g-g0)*nEntries*entryLen : (g-g0+1)*nEntries*entryLen]
		newLabel := newLabels[g*prf.Size : (g+1)*prf.Size]
		opener, err := sealer.Opener(stored)
		if err != nil {
			return attempts, false
		}
		e := 0
		for ; e < nEntries; e++ {
			attempts++
			if opener.OpenInto(newLabel, entries[e*entryLen:(e+1)*entryLen]) == nil {
				break
			}
		}
		if e == nEntries {
			return attempts, false
		}
		setGroupBits(fields, g, mode.Y(), uint8(e))
		digest.add(newLabel)
	}
	return attempts, true
}

// decryptPermuteRange is decryptRange under point-and-permute, where y = 2
// (TestPermuteModesAreY2): each stored label's colour, its first byte's low
// two bits, names the one entry of its group it opens, and opening it is
// one pad. Every group opens — an entry has no tag to refuse — so the
// attempts are one a group. Four consecutive groups pad in one PadGroup
// call, their new labels contiguous in newLabels; the last (g1-g0) % 4
// pad one at a time.
func decryptPermuteRange(sealer *secretbox.LabelSealer, rec *lblRecord, table []byte, g0, g1 int, newLabels, fields []byte, digest *labelDigest) {
	const n = secretbox.GroupPads
	const mask = n - 1
	var stored, bodies [n]*[prf.Size]byte
	g := g0
	for ; g+n <= g1; g += n {
		labels := (*[n * prf.Size]byte)(rec.labels[g*prf.Size:])
		entries := (*[n * n * prf.Size]byte)(table[(g-g0)*n*prf.Size:])
		for i := range stored {
			e := labels[i*prf.Size] & mask
			stored[i] = (*[prf.Size]byte)(labels[i*prf.Size:])
			bodies[i] = (*[prf.Size]byte)(entries[(i*n+int(e))*prf.Size:])
			fields[(g+i)/n] |= e << ((g + i) % n * 2)
		}
		sealer.PadGroup((*[n * prf.Size]byte)(newLabels[g*prf.Size:]), &stored, &bodies)
	}
	for ; g < g1; g++ {
		label := (*[prf.Size]byte)(rec.labels[g*prf.Size:])
		e := label[0] & mask
		sealer.Pad((*[prf.Size]byte)(newLabels[g*prf.Size:]), label, (*[prf.Size]byte)(table[((g-g0)*n+int(e))*prf.Size:]))
		fields[g/n] |= e << (g % n * 2)
	}
	for g := g0; g < g1; g++ {
		digest.add(newLabels[g*prf.Size:])
	}
}

// requestAbortMarker tags the rejection of a request that died or
// misbehaved before completing. Labels install only once the whole
// request has landed, so every record is untouched. Constant text like
// the other rejection markers.
const requestAbortMarker = "request aborted before completion"

// handleAccess is the one LBL access handler (steps 2.1–2.2 of §5.2).
// A request is n ≥ 1 segments back to back — encoded key, reserved
// bytes, geometry, verifier pair, table — arriving whole in payload or,
// when the proxy
// cut it, continued over the transport's StreamReader; the handler
// consumes segments as their bytes land, trial-decrypting each arrived
// run of groups against a snapshot of the key's record, and installs
// every key's new labels once the last byte confirms the request
// complete. Each segment stands alone: snapshot, verifier check,
// decryption, then a compare-and-swap install from its snapshot. A proxy
// names a key at most once a request (it folds a key's accesses, lbl.go);
// a request that names one twice gets no path of its own — both segments
// snapshot the same record, the compare-and-swap installs at most one of
// them, and the other is answered stale. The response is one fixed-width
// slot per segment. Work and response shape depend only on the table
// geometry and n — both in clear in the request — never on operation
// types, so the server learns nothing beyond "these n accesses were made
// to these objects".
func (s *LBLServer) handleAccess(ctx context.Context, payload []byte) ([]byte, error) {
	var next func() ([]byte, bool, error)
	if sr := transport.StreamFrom(ctx); sr != nil {
		next = func() ([]byte, bool, error) { return sr.Next(ctx) }
	}
	return s.access(ctx, payload, next)
}

// access serves one request: head is its first frame, and next, when
// non-nil, yields each further frame and whether another follows.
func (s *LBLServer) access(ctx context.Context, head []byte, next func() ([]byte, bool, error)) ([]byte, error) {
	sp := trace.StartChild(ctx, "server_decrypt")
	defer sp.End()
	req := lblRequest{srv: s, ctx: ctx}
	defer req.release()
	for frame, more := head, next != nil; ; {
		if err := req.consume(frame); err != nil {
			return nil, err
		}
		if !more {
			return req.finish()
		}
		var err error
		if frame, more, err = next(); err != nil {
			if ctx.Err() != nil {
				s.expiredRounds.Add(1)
				return nil, errExpiredRound
			}
			return nil, fmt.Errorf("core: %s: %v", requestAbortMarker, err)
		}
	}
}

// An lblRequest is one access request being consumed.
type lblRequest struct {
	srv  *LBLServer
	ctx  context.Context
	cfg  LBLConfig     // the first segment's header's; every later segment must repeat it
	segs []*lblSegment // in arrival order
}

// An lblSegment is one access within a request: the status it has earned
// and, while that is still slotOK, the record its table is being
// decrypted against, the record being built from what the decryptions
// recover, and the answer for its response slot.
type lblSegment struct {
	key      string
	status   byte
	fed      int // groups consumed so far
	rec      lblRecord
	snap     *[]byte // pooled: the stored record as it was when the segment began
	next     *[]byte // pooled: the record this segment builds
	fields   []byte  // the entry each group opened, y bits a group
	digest   labelDigest
	attempts int64
	busy     obs.Interval // record work: snapshot, trial decryptions, install
	// sealer decrypts the segment's runs: no two workers share it, the
	// runs of one frame being distinct segments', and a sealer on a
	// worker's stack would escape to the heap on every run.
	sealer secretbox.LabelSealer
}

// segRun is a run of groups [g0, g1) of seg's table, as it arrived.
type segRun struct {
	seg    *lblSegment
	g0, g1 int
	table  []byte
}

// consume takes the next frame of the request: any mix of segment
// headers and whole groups, in order. Each run of groups is
// trial-decrypted before consume returns, so frame's bytes need not
// outlive the call.
func (req *lblRequest) consume(frame []byte) error {
	var runsBuf [2]segRun
	runs := runsBuf[:0]
	for len(frame) > 0 {
		var seg *lblSegment
		if n := len(req.segs); n > 0 && req.segs[n-1].fed < req.cfg.Groups() {
			seg = req.segs[n-1]
		} else {
			r := wire.NewReader(frame)
			encKey, cfg, err := readSegHeader(r)
			if err != nil {
				return err
			}
			want, next := r.Raw(verifierLen), r.Raw(verifierLen)
			if err := r.Err(); err != nil {
				return err
			}
			if n == 0 {
				req.cfg = cfg
			} else if cfg != req.cfg {
				return fmt.Errorf("core: %s: segment %d changes the table geometry", requestAbortMarker, n)
			}
			if n == maxRoundKeys {
				return fmt.Errorf("core: request exceeds %d accesses", maxRoundKeys)
			}
			seg = req.begin(string(encKey), want, next)
			req.segs = append(req.segs, seg)
			frame = frame[len(frame)-r.Remaining():]
		}
		gl := req.cfg.groupBytes()
		k := min(req.cfg.Groups()-seg.fed, len(frame)/gl)
		if k == 0 {
			return fmt.Errorf("core: %s: frame is not cut at a group boundary", requestAbortMarker)
		}
		runs = append(runs, segRun{seg, seg.fed, seg.fed + k, frame[:k*gl]})
		seg.fed += k
		frame = frame[k*gl:]
	}
	// Runs in one frame are runs of distinct segments, which share
	// nothing: they fan out across workers like whole keys do.
	ForEach(len(runs), min(len(runs), runtime.GOMAXPROCS(0)), func(i int) error { //nolint:errcheck // outcomes land per segment
		req.decrypt(runs[i])
		return nil
	})
	return nil
}

// begin opens a segment: budget, then a snapshot of the stored record
// its table opens and the record's verifier — in that order, so an
// expired access costs no record work and a stale one no decryption. The
// record built starts with next, the verifier the segment installs.
func (req *lblRequest) begin(key string, want, next []byte) *lblSegment {
	s, cfg := req.srv, req.cfg
	seg := &lblSegment{key: key}
	if req.ctx.Err() != nil {
		s.expiredRounds.Add(1)
		seg.status = slotExpired
		return seg
	}
	seg.busy = obs.Time(s.mx.access, nil)
	defer seg.busy.Pause()
	seg.snap = recPool.Get().(*[]byte)
	snap, err := s.store.AppendGet((*seg.snap)[:0], key)
	*seg.snap = snap
	if err != nil {
		seg.status = slotNotFound
		return seg
	}
	if seg.rec, err = parseLBLRecord(snap, cfg); err != nil {
		seg.status = slotRejected
		if errors.Is(err, errRecordFormat) {
			seg.status = slotRecordFormat
		}
		return seg
	}
	if subtle.ConstantTimeCompare(seg.rec.verifier, want) != 1 {
		seg.status = slotStale
		return seg
	}
	seg.next = recPool.Get().(*[]byte)
	if cap(*seg.next) < len(snap) {
		*seg.next = make([]byte, len(snap))
	}
	*seg.next = (*seg.next)[:len(snap)]
	(*seg.next)[0] = cfg.Mode.recordByte()
	_, verifier := cfg.recordParts(*seg.next)
	copy(verifier, next)
	seg.fields = make([]byte, cfg.ValueSize)
	return seg
}

// decrypt trial-decrypts one arrived run against its segment's
// snapshot (step 2.1), unless the segment has already failed.
func (req *lblRequest) decrypt(run segRun) {
	seg := run.seg
	if seg.status != slotOK {
		return
	}
	if req.ctx.Err() != nil {
		req.srv.expiredRounds.Add(1)
		seg.status = slotExpired
		return
	}
	seg.busy.Resume()
	defer seg.busy.Pause()
	labels, _ := req.cfg.recordParts(*seg.next)
	a, ok := decryptRange(req.cfg.Mode, &seg.sealer, &seg.rec, run.table, run.g0, run.g1, labels, seg.fields, &seg.digest)
	seg.attempts += a
	if !ok {
		seg.status = slotStale
	}
}

// finish completes the request once its last byte has landed: it must
// end on a segment boundary — a cut or truncated request can never
// pass as complete — and only then does any key's record change. Each
// segment's new labels install by compare-and-swap against its snapshot
// (step 2.2), and its response slot is answered.
func (req *lblRequest) finish() ([]byte, error) {
	n := len(req.segs)
	if n == 0 || req.segs[n-1].fed < req.cfg.Groups() {
		return nil, fmt.Errorf("core: %s: request ends inside segment %d", requestAbortMarker, n)
	}
	// The response is retained by the transport's at-most-once dedup
	// cache, so it must be freshly allocated, never pooled.
	slotLen := req.cfg.ResponseBytesPerAccess()
	out := make([]byte, n*slotLen)
	ForEach(n, min(n, runtime.GOMAXPROCS(0)), func(i int) error { //nolint:errcheck // outcomes land per slot
		slot := out[i*slotLen : (i+1)*slotLen]
		slot[0] = req.install(req.segs[i], slot)
		return nil
	})
	return out, nil
}

// install swaps the record seg built in for the one it snapshotted,
// provided that is still what the store holds, fills slot's body with
// seg's fields and digest — or, stale, with the held record's verifier —
// and returns seg's status: the failure it met, or what the swap came to.
// A record that moved in between was advanced by a concurrent round keyed
// at the same counter — another proxy's serving the same key, or another
// segment of this request naming it, since one proxy never issues two — so
// this one is stale: of all rounds built at one counter, at most one
// installs.
func (req *lblRequest) install(seg *lblSegment, slot []byte) byte {
	s := req.srv
	if seg.status == slotStale {
		req.answerStale(slot, *seg.snap)
	}
	if seg.status != slotOK {
		return seg.status
	}
	if req.ctx.Err() != nil {
		s.expiredRounds.Add(1)
		return slotExpired
	}
	seg.busy.Resume()
	swapped := false
	err := s.store.Update(seg.key, func(old []byte) ([]byte, error) {
		if !bytes.Equal(old, *seg.snap) {
			req.answerStale(slot, old)
			return nil, errStaleTable
		}
		// Hand the store the new record; the displaced old slice is
		// recycled by release once the update commits.
		newRec := *seg.next
		*seg.next = old
		swapped = true
		return newRec, nil
	})
	switch {
	case err == nil:
		copy(slot[1:], seg.fields)
		seg.digest.put(slot[1+len(seg.fields):])
		s.ops.Add(1)
		// Trial decryptions are counted per segment and published once:
		// a per-entry atomic add is a cross-core cacheline ping-pong when
		// workers run in parallel.
		s.decryptAttempts.Add(seg.attempts)
		seg.busy.End() // only an access that installed is observed
		return slotOK
	case swapped:
		// The closure succeeded but journaling or the durability wait
		// failed; the store may retain either buffer, so recycle
		// neither.
		*seg.next = nil
		return slotRejected
	case errors.Is(err, kvstore.ErrNotFound):
		return slotNotFound
	case errors.Is(err, errStaleTable):
		return slotStale
	default:
		return slotRejected
	}
}

// answerStale puts held's verifier — which the server already knows, and
// from which the proxy reads the record's counter (reconcile.go) — in the
// digest's place of a slot refused stale, for reads and writes alike. A
// record that does not parse leaves the body zero, which no proxy reads
// as a counter.
func (req *lblRequest) answerStale(slot, held []byte) {
	if rec, err := parseLBLRecord(held, req.cfg); err == nil {
		copy(slot[len(slot)-verifierLen:], rec.verifier)
	}
}

// release returns every segment's pooled buffers: after a successful
// install the record the store displaced, otherwise the unused ones.
func (req *lblRequest) release() {
	for _, seg := range req.segs {
		if seg.snap != nil {
			recPool.Put(seg.snap)
		}
		if seg.next != nil {
			recPool.Put(seg.next)
		}
	}
}
