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
// groups' entries (table[0] is group g0's). Returns the number of
// decryptions attempted and whether every group opened; a group none of
// whose entries opens means the table is not keyed at the record's
// labels.
func decryptRange(mode LBLMode, rec *lblRecord, table []byte, g0, g1 int, newLabels, fields []byte, digest *labelDigest) (attempts int64, ok bool) {
	entryLen, nEntries := mode.entryLen(), mode.entries()
	sealer := secretbox.NewLabelSealer()
	for g := g0; g < g1; g++ {
		stored := rec.labels[g*prf.Size : (g+1)*prf.Size]
		entries := table[(g-g0)*nEntries*entryLen : (g-g0+1)*nEntries*entryLen]
		newLabel := newLabels[g*prf.Size : (g+1)*prf.Size]
		e := 0
		if mode.permute() {
			// Point-and-permute: the stored label's colour names its
			// entry, and opening it is one pad.
			e = int(stored[0] & mode.colourMask())
			attempts++
			if sealer.PadInto(newLabel, stored, entries[e*entryLen:(e+1)*entryLen]) != nil {
				return attempts, false
			}
		} else {
			// Try each shuffled entry; the recognition tag identifies the
			// one our label opens (§5.2 step 2.1). Every trial opens under
			// the same stored label, so the pad is derived once and each
			// trial is a tag comparison.
			opener, err := sealer.Opener(stored)
			if err != nil {
				return attempts, false
			}
			for ; e < nEntries; e++ {
				attempts++
				if opener.OpenInto(newLabel, entries[e*entryLen:(e+1)*entryLen]) == nil {
					break
				}
			}
			if e == nEntries {
				return attempts, false
			}
		}
		setGroupBits(fields, g, mode.Y(), uint8(e))
		digest.add(newLabel)
	}
	return attempts, true
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
// complete. Consecutive segments that name one key are a chain: each is
// decrypted against the record the one before it built, and the chain
// installs as one compare-and-swap from the first's snapshot to the
// last's record, all or none. The response is one fixed-width slot per
// segment. Work and response shape depend only on the table geometry, n,
// and which encoded keys repeat — all in clear in the request — never on
// operation types, so the server learns nothing beyond "these n accesses
// were made to these objects".
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

// An lblSegment is one access within a request: the status its chain
// has earned through it and, while that is still slotOK, the record its
// table is being decrypted against, the record being built from what
// the decryptions recover, and the answer for its response slot.
type lblSegment struct {
	key    string
	status byte
	fed    int // groups consumed so far
	// prev is the segment before this one when that names the same key:
	// this segment continues prev's chain, and rec is the record prev
	// builds, not a stored one.
	prev     *lblSegment
	rec      lblRecord
	snap     *[]byte // pooled, a chain's head only: the stored record as it was when the chain began
	next     *[]byte // pooled: the record this segment builds
	fields   []byte  // the entry each group opened, y bits a group
	digest   labelDigest
	attempts int64
	busy     obs.Interval // record work: snapshot, trial decryptions, install
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
	// Runs in one frame fan out across workers like whole keys do, a
	// chain's runs to one worker in order: a member's table opens under
	// the labels its predecessor's recovers.
	ForEach(len(runs), min(len(runs), runtime.GOMAXPROCS(0)), func(i int) error { //nolint:errcheck // outcomes land per segment
		if i > 0 && runs[i].seg.prev == runs[i-1].seg {
			return nil // decrypted behind its predecessor
		}
		req.decrypt(runs[i])
		for i++; i < len(runs) && runs[i].seg.prev == runs[i-1].seg; i++ {
			req.decrypt(runs[i])
		}
		return nil
	})
	return nil
}

// begin opens a segment: budget, then the record its table opens and its
// verifier — in that order, so an expired access costs no record work and
// a stale one no decryption.
// A chain's head snapshots the stored record; a segment naming the same
// key as the one before it continues that chain from the record its
// predecessor is building, whose verifier is the one the predecessor
// installs. The record built starts with next, the verifier the segment
// installs.
func (req *lblRequest) begin(key string, want, next []byte) *lblSegment {
	s, cfg := req.srv, req.cfg
	seg := &lblSegment{key: key}
	if n := len(req.segs); n > 0 && req.segs[n-1].key == key {
		seg.prev = req.segs[n-1]
	}
	if req.ctx.Err() != nil {
		s.expiredRounds.Add(1)
		seg.status = slotExpired
		return seg
	}
	seg.busy = obs.Time(s.mx.access, nil)
	defer seg.busy.Pause()
	var from []byte
	if seg.prev == nil {
		seg.snap = recPool.Get().(*[]byte)
		snap, err := s.store.AppendGet((*seg.snap)[:0], key)
		*seg.snap = snap
		if err != nil {
			seg.status = slotNotFound
			return seg
		}
		from = snap
	} else if seg.prev.next == nil {
		// The chain failed before this segment: there is no record to go on
		// from, and install reports the earlier status for all of it.
		seg.status = seg.prev.status
		return seg
	} else {
		from = *seg.prev.next
	}
	var err error
	if seg.rec, err = parseLBLRecord(from, cfg); err != nil {
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
	if cap(*seg.next) < len(from) {
		*seg.next = make([]byte, len(from))
	}
	*seg.next = (*seg.next)[:len(from)]
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
	a, ok := decryptRange(req.cfg.Mode, &seg.rec, run.table, run.g0, run.g1, labels, seg.fields, &seg.digest)
	seg.attempts += a
	if !ok {
		seg.status = slotStale
	}
}

// finish completes the request once its last byte has landed: it must
// end on a segment boundary — a cut or truncated request can never
// pass as complete — and only then does any key's record change. Each
// chain's new labels install by compare-and-swap against its head's
// snapshot (step 2.2), and its members' response slots are answered.
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
		if req.segs[i].prev != nil {
			return nil // answered with its chain's head
		}
		j := i + 1
		for j < n && req.segs[j].prev != nil {
			j++
		}
		chain, slots := req.segs[i:j], out[i*slotLen:j*slotLen]
		status := req.install(chain, slots)
		for k := range chain {
			slots[k*slotLen] = status
		}
		return nil
	})
	return out, nil
}

// install swaps the record chain's last member built in for the one its
// head snapshotted, provided that is still what the store holds, fills
// slots with each member's fields and digest — or, stale, with the held
// record's verifier — and returns the chain's status: the first failure
// any member met, or what the swap came to. One update, so one WAL
// record, takes the record through all of the chain's counter steps or
// none of them, so a stale answer's verifier says where a lost chain left
// the record. A record that moved in between was advanced by a concurrent
// round keyed at the same counter — another proxy's serving the same key,
// since one proxy never issues two — so this round is stale: of all rounds
// built at one counter, at most one installs.
func (req *lblRequest) install(chain []*lblSegment, slots []byte) byte {
	s := req.srv
	head, tail := chain[0], chain[len(chain)-1]
	for _, seg := range chain {
		if seg.status == slotStale {
			req.answerStale(slots, *head.snap)
		}
		if seg.status != slotOK {
			return seg.status
		}
	}
	if req.ctx.Err() != nil {
		s.expiredRounds.Add(1)
		return slotExpired
	}
	head.busy.Resume()
	swapped := false
	err := s.store.Update(head.key, func(old []byte) ([]byte, error) {
		if !bytes.Equal(old, *head.snap) {
			req.answerStale(slots, old)
			return nil, errStaleTable
		}
		// Hand the store the new record; the displaced old slice is
		// recycled by release once the update commits.
		newRec := *tail.next
		*tail.next = old
		swapped = true
		return newRec, nil
	})
	switch {
	case err == nil:
		slotLen := req.cfg.ResponseBytesPerAccess()
		for k, seg := range chain {
			body := slots[k*slotLen+1 : (k+1)*slotLen]
			copy(body, seg.fields)
			seg.digest.put(body[len(seg.fields):])
		}
		s.ops.Add(int64(len(chain)))
		// Trial decryptions are counted per segment and published once:
		// a per-entry atomic add is a cross-core cacheline ping-pong when
		// workers run in parallel.
		for _, seg := range chain {
			s.decryptAttempts.Add(seg.attempts)
			seg.busy.End() // only an access that installed is observed
		}
		return slotOK
	case swapped:
		// The closure succeeded but journaling or the durability wait
		// failed; the store may retain either buffer, so recycle
		// neither.
		*tail.next = nil
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
// digest's place of every slot of a chain refused stale, for reads and
// writes alike. A record that does not parse leaves the bodies zero,
// which no proxy reads as a counter.
func (req *lblRequest) answerStale(slots, held []byte) {
	rec, err := parseLBLRecord(held, req.cfg)
	if err != nil {
		return
	}
	slotLen := req.cfg.ResponseBytesPerAccess()
	for k := slotLen - verifierLen; k < len(slots); k += slotLen {
		copy(slots[k:k+verifierLen], rec.verifier)
	}
}

// release returns every segment's pooled buffers: after a successful
// install the record the store displaced and the records a chain passed
// through, otherwise the unused ones.
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
