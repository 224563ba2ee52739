package core

import (
	"context"
	"crypto/subtle"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ortoa/internal/crypto/prf"
	"ortoa/internal/crypto/secretbox"
	"ortoa/internal/obs"
	"ortoa/internal/obs/trace"
	"ortoa/internal/transport"
	"ortoa/internal/wire"
)

// LBLMode selects the LBL-ORTOA variant: it is an index into lblModes,
// the one table every variant's parameters are read from. The index is
// the low bits of the mode byte on the wire and in stored records, so a
// row keeps its number for good.
type LBLMode uint8

const (
	// LBLBasic is the §5.2 protocol: one label per plaintext bit
	// (y=1), entries shuffled, server try-decrypts both.
	LBLBasic LBLMode = iota
	// LBLSpaceOpt is the §10.1 space optimization: one label per two
	// bits (y=2), halving server storage; the server try-decrypts up
	// to four entries per group.
	LBLSpaceOpt
	// LBLPointPermute adds the §10.2 point-and-permute optimization
	// to y=2: a label's low two bits name the entry it opens, so the
	// server decrypts exactly one entry and entries carry no tag. This
	// is the configuration the paper's cost analysis assumes (§6.3.3).
	LBLPointPermute
)

// lblModes holds one row per variant: its name (the public package's
// LBLVariant), how many plaintext bits one label represents, whether a
// label's low y bits are its point-and-permute colour — the index of the
// entry it opens — and how many bytes of recognition tag each table
// entry carries for trial decryption to find its entry by.
var lblModes = [...]struct {
	name    string
	y       int
	permute bool
	tag     int
}{
	LBLBasic:        {"basic", 1, false, secretbox.LabelTagSize},
	LBLSpaceOpt:     {"space-opt", 2, false, secretbox.LabelTagSize},
	LBLPointPermute: {"point-permute", 2, true, 0},
}

// maxEntries bounds 2^y over lblModes: the table entries of one group.
const maxEntries = 4

// LBLModeNamed returns the mode whose row is named name.
func LBLModeNamed(name string) (LBLMode, bool) {
	for m, row := range lblModes {
		if row.name == name {
			return LBLMode(m), true
		}
	}
	return 0, false
}

// checkMode refuses a mode lblModes has no row for.
func checkMode(m LBLMode) error {
	if int(m) >= len(lblModes) {
		return fmt.Errorf("core: unknown LBL mode %d", m)
	}
	return nil
}

// String returns the mode's row name.
func (m LBLMode) String() string {
	if checkMode(m) != nil {
		return fmt.Sprintf("mode(%d)", uint8(m))
	}
	return lblModes[m].name
}

// Y returns how many plaintext bits one label represents.
func (m LBLMode) Y() int { return lblModes[m].y }

// entries returns the encryption-table entries per group (2^y).
func (m LBLMode) entries() int { return 1 << m.Y() }

// permute reports whether labels carry point-and-permute colour bits.
func (m LBLMode) permute() bool { return lblModes[m].permute }

// colourMask masks a label's colour: the low y bits of its first byte.
func (m LBLMode) colourMask() uint8 { return uint8(m.entries() - 1) }

// entryLen is the length of one table entry: the new label, plus the
// mode's recognition tag.
func (m LBLMode) entryLen() int { return prf.Size + lblModes[m].tag }

// seal writes the table entry carrying label under key into dst: the
// label XOR key's one-block pad under point-and-permute, where the
// opener is told which entry is its own, and sealed with a recognition
// tag otherwise.
func (m LBLMode) seal(s *secretbox.LabelSealer, dst, key, label []byte) error {
	if m.permute() {
		return s.PadInto(dst, key, label)
	}
	return s.SealInto(dst, key, label)
}

// paint sets label's colour — its first byte's bits under mask, the
// index of the entry it opens under point-and-permute (§10.2) — to b ⊕ r,
// where r is the colour bit value 0's label has in the same group and at
// the same counter. That label keeps its own, so the 2^y labels of a group
// name 2^y distinct entries and a colour says nothing about b.
func paint(label []byte, b, r, mask uint8) { label[0] = label[0]&^mask | (b^r)&mask }

// LBLConfig fixes the parameters shared by an LBL proxy and the
// records it creates. The server derives one from every request
// segment's header (readSegHeader), so both sides size requests,
// response slots and records with the same methods.
type LBLConfig struct {
	// ValueSize is the fixed plaintext value length in bytes (ℓ/8).
	ValueSize int
	// Mode selects the protocol variant. Its zero value is LBLBasic
	// (y = 1, trial decryption); the public package's empty LBLVariant
	// is point-and-permute instead.
	Mode LBLMode
	// StreamChunkBytes, when positive, is the request frame budget: a
	// request longer than this is cut at whole-group boundaries into
	// frames of at most about this many bytes, written to the wire as
	// workers seal them, so the server trial-decrypts one frame's groups
	// while the proxy garbles the next and the WAN carries both. It also
	// bounds the proxy's request buffer to one frame — not the access's
	// whole footprint: the label schedule the build carries to recovery
	// (scheduleBytes, 1.06× the request under point-and-permute: 43 KB at
	// 160 B, 1.1 MB at 4 KiB) stays live per key from first seal to recovery
	// whatever the budget. Zero sends every request as one frame, as does
	// any request the budget already covers.
	StreamChunkBytes int
}

// Groups returns the number of label groups per value (ℓ/y).
func (c LBLConfig) Groups() int { return c.ValueSize * 8 / c.Mode.Y() }

// ServerBytesPerValue returns the server-side record size, the
// quantity §5.3.1 and the Fig 6 storage factor analysis price: the mode
// byte, one label per group, and the record's verifier (reconcile.go).
func (c LBLConfig) ServerBytesPerValue() int { return 1 + c.Groups()*prf.Size + verifierLen }

// recordParts splits rec, a record of ServerBytesPerValue bytes, into
// the labels and the verifier that follow its mode byte.
func (c LBLConfig) recordParts(rec []byte) (labels, verifier []byte) {
	n := 1 + c.Groups()*prf.Size
	return rec[1:n], rec[n:]
}

// groupBytes returns the size of one group's table entries
// (2^y · E_len).
func (c LBLConfig) groupBytes() int { return c.Mode.entries() * c.Mode.entryLen() }

// TableBytes returns the size of one access's encryption table: the
// verifier pair — the record's verifier at the table's counter and the
// one it installs — then 2^y · E_len · ℓ/y entries.
func (c LBLConfig) TableBytes() int { return 2*verifierLen + c.Groups()*c.groupBytes() }

// scheduleBytes returns the size of the schedule one access's build
// carries to recovery (tableSpec): per group, the 2^y counter-ct+1 labels
// and the old bits each of the 2^y entries is keyed by.
func (c LBLConfig) scheduleBytes() int { return c.Groups() * c.Mode.entries() * (prf.Size + 1) }

// carve splits sched, scheduleBytes long, into a spec's news and olds.
func (c LBLConfig) carve(sched []byte) (news, olds []byte) {
	n := c.Groups() * c.Mode.entries() * prf.Size
	return sched[:n:n], sched[n:]
}

// segHeaderLen is the size of what precedes the table in one access's
// request segment: encoded key, the reserved bytes, the mode byte (which
// also carries the entry format), and the group count and entry length as
// uvarints.
func (c LBLConfig) segHeaderLen() int {
	return prf.Size + reservedLen + 1 +
		wire.UvarintLen(uint64(c.Groups())) +
		wire.UvarintLen(uint64(c.Mode.entryLen()))
}

// segPrefixLen is the size of what precedes a segment's first group: its
// header and the verifier pair at the front of its table.
func (c LBLConfig) segPrefixLen() int { return c.segHeaderLen() + 2*verifierLen }

// RequestBytesPerAccess returns the exact size of one access's request
// segment (§5.3.2: 2^y · E_len · ℓ/y table entries plus framing). A
// request for n keys is n segments back to back.
func (c LBLConfig) RequestBytesPerAccess() int { return c.segHeaderLen() + c.TableBytes() }

// ResponseBytesPerAccess returns the exact size of one access's
// response slot: a status code, y bits per group naming the entry the
// server opened (ValueSize bytes, laid out as the value's bits are), and
// a 16-byte digest of the labels it installed. The slot is length-pinned
// whatever happened to each key (see the slot statuses in lblserver.go).
func (c LBLConfig) ResponseBytesPerAccess() int { return 1 + c.ValueSize + prf.Size }

func (c LBLConfig) validate() error {
	if c.ValueSize <= 0 {
		return fmt.Errorf("core: LBL value size %d must be positive", c.ValueSize)
	}
	if err := checkMode(c.Mode); err != nil {
		return err
	}
	if c.StreamChunkBytes < 0 {
		return fmt.Errorf("core: negative stream chunk budget %d", c.StreamChunkBytes)
	}
	return nil
}

// A run is a range of one segment's groups carried by one frame. A run
// starting at group 0 is preceded by its segment's header and verifier
// pair.
type run struct{ seg, g0, g1 int }

// A frameCutter walks an n-segment request frame by frame. It is the
// one chunking rule: the logical payload is cut at whole-group
// boundaries, each frame taking as many groups (and the segment
// headers and verifier pairs between them) as fit in StreamChunkBytes,
// and at least one.
// Cuts depend only on the table geometry, n, and the budget — never on
// operations or values — so frame counts and lengths are as
// operation-oblivious as the payload itself.
type frameCutter struct {
	cfg    LBLConfig
	n      int
	seg, g int // the next group to send
}

func (c *frameCutter) done() bool { return c.seg == c.n }

// next appends the next frame's runs to runs.
func (c *frameCutter) next(runs []run) []run {
	groups, gl := c.cfg.Groups(), c.cfg.groupBytes()
	room := c.cfg.StreamChunkBytes
	if room <= 0 {
		room = math.MaxInt
	}
	for c.seg < c.n {
		if c.g == 0 {
			room -= c.cfg.segPrefixLen()
		}
		k := groups - c.g
		if fit := room / gl; fit < k {
			k = fit
		}
		if k <= 0 {
			if len(runs) > 0 {
				break
			}
			k = 1
		}
		runs = append(runs, run{c.seg, c.g, c.g + k})
		room -= k * gl
		if c.g += k; c.g == groups {
			c.seg, c.g = c.seg+1, 0
		}
	}
	return runs
}

// frameBytes returns the length of a frame carrying runs.
func (c LBLConfig) frameBytes(runs []run) int {
	n := 0
	for _, r := range runs {
		if r.g0 == 0 {
			n += c.segPrefixLen()
		}
		n += (r.g1 - r.g0) * c.groupBytes()
	}
	return n
}

// RequestFrames returns how many frames a request for n keys crosses
// the wire as: ⌈payload/budget⌉ up to group alignment, and 1 without a
// budget.
func (c LBLConfig) RequestFrames(n int) int {
	cut := frameCutter{cfg: c, n: n}
	frames := 0
	for runs := []run(nil); !cut.done(); frames++ {
		runs = cut.next(runs[:0])
	}
	return frames
}

// maxRoundBytes caps one request frame, one response and one round's
// schedule buffer, leaving ample headroom under transport.MaxFrameSize,
// and maxRoundKeys caps the keys of one round, limiting the memory a
// single request can pin on the server; larger batches are split into
// several rounds transparently.
const (
	maxRoundBytes = 48 << 20
	maxRoundKeys  = 1 << 16
)

// roundKeys returns how many keys one round may carry: as many as keep
// the schedule the round carries to recovery — which outweighs its
// response slots — and, when no frame budget cuts the request, the
// request frame too, under maxRoundBytes.
func (c LBLConfig) roundKeys() int {
	per := c.scheduleBytes()
	if c.StreamChunkBytes <= 0 {
		per = max(per, c.RequestBytesPerAccess())
	}
	n := maxRoundBytes / per
	if n > maxRoundKeys {
		n = maxRoundKeys
	}
	if n < 1 {
		n = 1
	}
	return n
}

// groupBits extracts the y-bit group g from value (little-endian bit
// order within each byte; y ∈ {1, 2} always divides 8, so a group
// never straddles a byte boundary).
func groupBits(value []byte, g, y int) uint8 {
	bit := g * y
	mask := uint8(1)<<y - 1
	return (value[bit/8] >> (uint(bit) % 8)) & mask
}

// setGroupBits writes the y-bit group g of value.
func setGroupBits(value []byte, g, y int, bits uint8) {
	pos := g * y
	mask := uint8(1)<<y - 1
	value[pos/8] |= (bits & mask) << (uint(pos) % 8)
}

// A labelDigest is the XOR of labels, the digest a response slot carries
// (§5.4), accumulated in two words.
type labelDigest struct{ lo, hi uint64 }

// add XORs the label l into d.
func (d *labelDigest) add(l []byte) {
	d.lo ^= binary.LittleEndian.Uint64(l[:8])
	d.hi ^= binary.LittleEndian.Uint64(l[8:prf.Size])
}

// put writes d's prf.Size bytes to dst.
func (d labelDigest) put(dst []byte) {
	binary.LittleEndian.PutUint64(dst[:8], d.lo)
	binary.LittleEndian.PutUint64(dst[8:prf.Size], d.hi)
}

// An LBLProxy is the trusted, stateful side of LBL-ORTOA. It holds the
// PRF master secret and the per-key access counters, and talks to the
// untrusted server over client.
type LBLProxy struct {
	cfg       LBLConfig
	prf       *prf.PRF
	counters  *counterTable
	client    *transport.Client
	schedules schedulePool
	vk        verifierKey
	// zero is what a read's table is built from: a value of zeros, which
	// the build's keep mask discards (newSpec).
	zero []byte
	stageObs
	sessions *obs.Stages // the per-caller family of single accesses (ortoa_agg); nil unmetered
	mx       lblProxyObs
}

// NewLBLProxy returns a proxy using f as its PRF and client to reach
// the server. client may be nil for offline uses (BuildRecord only).
func NewLBLProxy(cfg LBLConfig, f *prf.PRF, client *transport.Client) (*LBLProxy, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	p := &LBLProxy{cfg: cfg, prf: f, counters: newCounterTable(), client: client,
		vk: newVerifierKey(f), zero: make([]byte, cfg.ValueSize), stageObs: stageObs{stages: LBLStages(nil)}}
	p.counters.maxChain = cfg.roundKeys()
	return p, nil
}

// Config returns the proxy's configuration.
func (p *LBLProxy) Config() LBLConfig { return p.cfg }

// CounterKeys returns the number of keys with tracked access counters
// — the proxy state whose size §5.3.1 analyzes.
func (p *LBLProxy) CounterKeys() int { return p.counters.Len() }

// SaveCounters persists the access-counter table. It may run alongside
// accesses: each counter is captured between its rounds, so the save
// always loads, but it can trail the server by the accesses that
// completed after their key was captured — a gap each key's first stale
// answer closes (reconcile.go).
func (p *LBLProxy) SaveCounters(w io.Writer) error { return p.counters.save(w) }

// LoadCounters restores a SaveCounters snapshot, merging over current
// entries. A counter that trails the server costs its key one extra
// round trip on first access; one ahead of it is a server rollback.
func (p *LBLProxy) LoadCounters(r io.Reader) error { return p.counters.load(r) }

// BuildRecord encodes the initial record for (key, value) at access
// counter 0, to be bulk-loaded into the server's store (the Init
// procedure of Figure 1). value must be exactly ValueSize bytes.
func (p *LBLProxy) BuildRecord(key string, value []byte) (encKey string, record []byte, err error) {
	if len(value) != p.cfg.ValueSize {
		return "", nil, ErrValueSize
	}
	mode, groups := p.cfg.Mode, p.cfg.Groups()
	ek := p.prf.EncodeKey(key)
	rec := make([]byte, p.cfg.ServerBytesPerValue())
	rec[0] = mode.recordByte()
	labels, verifier := p.cfg.recordParts(rec)
	p.vk.seal(verifier, ek, 0)
	gen := p.prf.LabelGen(key)
	var rows scheduleRows
	for b := 0; b < mode.entries(); b++ {
		rows.add(gen.LabelRow(0, uint8(b), 0))
	}
	for c0 := 0; c0 < groups; c0 += rowChunk {
		k := rows.next(groups - c0)
		if mode.permute() {
			rows.paint(k, mode.colourMask())
		}
		for i := 0; i < k; i++ {
			g := c0 + i
			copy(labels[g*prf.Size:], rows.at(int(groupBits(value, g, mode.Y())), i))
		}
	}
	return string(ek[:]), rec, nil
}

// A BatchOp is one operation of an AccessBatch. For OpWrite, Value must
// be exactly ValueSize bytes; for OpRead it is ignored.
type BatchOp struct {
	Op    Op
	Key   string
	Value []byte
}

// check validates one operation before any counter is touched.
func (p *LBLProxy) check(op *BatchOp) error {
	switch {
	case p.client == nil:
		return fmt.Errorf("core: LBL proxy has no server connection")
	case op.Op != OpRead && op.Op != OpWrite:
		return fmt.Errorf("core: unknown op %d", op.Op)
	case op.Op == OpWrite && len(op.Value) != p.cfg.ValueSize:
		return ErrValueSize
	}
	return nil
}

// Access performs one oblivious access (§5.2). For reads, newValue is
// ignored and the stored value is returned. For writes, newValue
// (exactly ValueSize bytes) replaces the stored value; the returned
// slice echoes the written value.
func (p *LBLProxy) Access(op Op, key string, newValue []byte) ([]byte, AccessStats, error) {
	return p.AccessContext(context.Background(), op, key, newValue)
}

// AccessContext is Access with a caller context: cancellation plus the
// active trace span. An access that finds its key free runs at once, a
// round of one on its caller's goroutine and context, the proxy-side
// stage tree (counter_acquire, table_build, rpc, label_recover, and
// recovery_ladder when it climbs) under
// the caller's span. One that finds its key's round in flight is held on
// the key's counter entry, and when that round returns everything held
// for the key leaves together, in the order it was admitted, as one chain
// (lead). Nothing else makes an access wait — no timer, no size to fill —
// and which access waits for which depends on key identity and arrival
// time only, never on operation type. AccessStats is the round's for the
// access that carried it and zero for the others of its chain.
func (p *LBLProxy) AccessContext(ctx context.Context, op Op, key string, newValue []byte) ([]byte, AccessStats, error) {
	w := &keyWaiter{ctx: ctx}
	acc := &w.acc[0]
	acc.BatchOp = BatchOp{Op: op, Key: key, Value: newValue}
	if err := p.check(&acc.BatchOp); err != nil {
		return nil, AccessStats{}, err
	}
	w.admitted = p.sessions.Now()
	e := p.counters.entry(key)
	alone := [1]*keyWaiter{w}
	chain, left := alone[:], w.admitted // an access that finds its key free leaves as it arrives
	if !e.take(w) {
		<-w.wake
		if w.chain == nil {
			return acc.value, AccessStats{}, acc.err
		}
		chain, left = w.chain, p.sessions.Now()
	}
	stats := p.lead(e, chain, left)
	return acc.value, stats, acc.err
}

// lead carries chain — single accesses to one key in admission order,
// the caller's own first, out of the line since left — through one round
// on the caller's goroutine. The caller owns e, the key's entry; the
// round gives it up. A chain of one runs under its access's own context,
// deadline included; a longer one under no member's, so that one member's
// cancellation never fails another's access (release shed the members
// already expired), and under the leader's span.
func (p *LBLProxy) lead(e *counterEntry, chain []*keyWaiter, left time.Time) AccessStats {
	n := len(chain)
	accs, ctx := chain[0].acc[:], chain[0].ctx
	if n > 1 {
		accs = make([]roundAccess, n)
		for i, w := range chain {
			accs[i] = w.acc[0]
		}
		ctx = trace.ContextWith(context.Background(), trace.FromContext(ctx))
	}
	p.mx.chainLen.Observe(time.Duration(n)) // a count, on the histogram's integer scale
	stats := p.round(ctx, accs, e)
	returned := p.sessions.Now()
	for i, w := range chain {
		w.acc[0] = accs[i]
		// The time an access was held for its key is a stage of its own,
		// never folded into the round trip. The label carries no key
		// material: the chain and the access's place in it.
		p.sessions.Record(w.admitted, trace.FromContext(w.ctx).TraceID(), failedAccesses(accs[i].err),
			func() string { return fmt.Sprintf("chain=%d member=%d", n, i) },
			left.Sub(w.admitted), returned.Sub(left))
		if i > 0 {
			close(w.wake)
		}
	}
	return stats
}

// AccessBatch performs many oblivious accesses in one round trip: one
// round acquires every key's counter, builds all encryption tables,
// sends them as one request, and recovers every value from the one
// response (§5.2 amortized; see DESIGN.md).
//
// Results are returned in input order; reads yield the stored value,
// writes echo the written value. A key may appear more than once: its
// accesses travel as one chain, keyed at consecutive counter values and
// applied by the server in input order, so a read after a write to the
// same key returns the written value — still within the one round trip.
// Only batches past the per-round key cap are split into several rounds.
//
// On a per-key failure (e.g. an unloaded key), the remaining accesses
// still complete — their values are set and their counters committed —
// and AccessBatch returns the first error alongside the partial
// results.
func (p *LBLProxy) AccessBatch(ops []BatchOp) ([][]byte, AccessStats, error) {
	for i := range ops {
		if err := p.check(&ops[i]); err != nil {
			return nil, AccessStats{}, fmt.Errorf("batch op %d (%q): %w", i, ops[i].Key, err)
		}
	}
	results, stats := p.AccessBatchResults(context.Background(), ops)
	values := make([][]byte, len(ops))
	var firstErr error
	for i, r := range results {
		values[i] = r.Value
		if r.Err != nil && firstErr == nil {
			firstErr = r.Err
		}
	}
	return values, stats, firstErr
}

// A BatchResult is one access's outcome within a batched round: the
// value (the stored value for a read, the written value echoed for a
// write) or that access's individual error.
type BatchResult struct {
	Value []byte
	Err   error
}

// AccessBatchResults is AccessBatch with per-access outcomes instead
// of first-error-wins: every access's value or error is reported at
// its own index, and an invalid op (unknown op code, wrong write
// size) fails only itself — the rest of the batch still runs. It
// exists for callers that put independent sessions' accesses into one
// request: one session's malformed write must not fail the rest.
func (p *LBLProxy) AccessBatchResults(ctx context.Context, ops []BatchOp) ([]BatchResult, AccessStats) {
	var stats AccessStats
	results := make([]BatchResult, len(ops))
	order := make([]int, 0, len(ops))
	for i := range ops {
		if err := p.check(&ops[i]); err != nil {
			results[i].Err = fmt.Errorf("batch op %d (%q): %w", i, ops[i].Key, err)
			continue
		}
		order = append(order, i)
	}
	// Deterministic lock order: counters are acquired in sorted key
	// order, so concurrent rounds cannot deadlock. The sort is stable, so
	// a key's accesses stay in input order — the order its chain applies.
	sort.SliceStable(order, func(a, b int) bool { return ops[order[a]].Key < ops[order[b]].Key })
	perRound := p.cfg.roundKeys()
	for len(order) > 0 {
		idxs := order[:min(perRound, len(order))]
		order = order[len(idxs):]
		accs := make([]roundAccess, len(idxs))
		for j, i := range idxs {
			accs[j].BatchOp = ops[i]
		}
		st := p.round(ctx, accs, nil)
		stats.PrepBytes += st.PrepBytes
		stats.RespBytes += st.RespBytes
		for j, i := range idxs {
			results[i] = BatchResult{Value: accs[j].value, Err: accs[j].err}
		}
	}
	return results, stats
}

// A roundAccess is one access on its way through a round.
type roundAccess struct {
	BatchOp
	value []byte // the outcome: the recovered value,
	err   error  // or why there is none
}

// A keyChain is a round's accesses to one key, in the order they apply.
// They share the key's counter entry, which the round owns, are keyed at
// consecutive counter values — the table at counter c maps the labels at
// c to the labels at c+1 whatever the value is (§5.2), so the proxy can
// build the k-th before the first has run — and the server installs them
// all or none (lblserver.go). The chain is therefore the unit of
// everything that follows a round: one commit of len(accs) counter
// steps, one climb of the recovery ladder.
type keyChain struct {
	accs  []roundAccess
	entry *counterEntry
	first int // the head's spec and response slot in the current lap
	// What the last lap's response said: the rejection every slot of the
	// chain carried, if it was one, for the ladder to answer, and the
	// error the chain fails with if it cannot — the rejection's, or
	// ErrTampered's with status left slotOK, nil when every value
	// recovered. held is a stale answer's verifier: the one the server's
	// record holds (reconcile.go).
	status byte
	err    error
	held   [verifierLen]byte
	// Laps of the recovery ladder this chain has climbed.
	rebased int
}

func (c *keyChain) key() string { return c.accs[0].Key }

func (c *keyChain) fail(err error) {
	for i := range c.accs {
		c.accs[i].value, c.accs[i].err = nil, err
	}
}

// chainsOf cuts accs, in which a key's accesses sit next to each other,
// into one chain per key.
func chainsOf(accs []roundAccess) []keyChain {
	chains := make([]keyChain, 0, len(accs))
	for i := 0; i < len(accs); {
		j := i + 1
		for j < len(accs) && accs[j].Key == accs[i].Key {
			j++
		}
		chains = append(chains, keyChain{accs: accs[i:j]})
		i = j
	}
	return chains
}

// recoveryAllowance bounds the rebases per chain. One rebase repairs any
// desynchronized counter, however far the record moved; the allowance is
// >1 because while two proxies serve one key the other can advance the
// record again between our rebase and its retry, a transient that
// resolves within a lap or two.
const recoveryAllowance = 3

// round is the one LBL access procedure (§5.2, Fig 1), for k ≥ 1
// accesses in sorted key order, a key's accesses next to each other in
// the order they apply: own each key's counter, then build, send, and
// judge each key's chain — recover and commit on success, climb the
// recovery ladder and go around again on a stale answer it can repair,
// fail otherwise. Outcomes land in accs; one key's failure never fails
// its round mates. An ambiguous failure leaves each counter where it
// was: the key's next access is its probe (reconcile.go).
// owned, when non-nil, is the entry of the one key accs name, which the
// caller owns already (lead); otherwise the round takes its keys in
// order, each after whatever was in line for it, so rounds cannot
// deadlock and a hot key's chains cannot starve a multi-key one. Either
// way the round gives its keys up as it returns.
func (p *LBLProxy) round(ctx context.Context, accs []roundAccess, owned *counterEntry) AccessStats {
	var stats AccessStats
	clk, ctx := p.start(ctx, "lbl_access")

	// Per-key serialization: the label schedule is counter-indexed,
	// so a key's rounds must not interleave (see counterTable).
	clk.Enter(lblAcquire)
	chains := chainsOf(accs)
	live := make([]*keyChain, len(chains))
	defer func() {
		for i := range chains {
			p.counters.release(chains[i].entry)
		}
	}()
	for i := range chains {
		if chains[i].entry = owned; owned == nil {
			chains[i].entry = p.counters.acquire(chains[i].key())
		}
		live[i] = &chains[i]
	}
	p.mx.keys.Add(int64(len(accs)))

	specs := make([]tableSpec, 0, len(accs))
	per := p.cfg.scheduleBytes()
	sched := p.schedules.get(len(accs) * per)
	defer p.schedules.put(sched)
	for len(live) > 0 {
		// Dead callers get no table: garbling is the proxy's most
		// expensive stage, so a round whose propagated deadline has
		// already passed is dropped before building anything
		// (DESIGN.md §15). Nothing was sent — a definite non-execution,
		// never an ambiguous one.
		if ctx.Err() != nil {
			failAll(live, errDeadlineBeforeBuild)
			break
		}
		specs = specs[:0]
		for _, c := range live {
			c.first = len(specs)
			for j := range c.accs {
				a, i := &c.accs[j], len(specs)
				specs = append(specs, p.newSpec(a.Op, a.Key, a.Value, c.entry.ct+uint64(j), sched[i*per:(i+1)*per]))
			}
		}
		resp, sent, err := p.exchange(ctx, &clk, specs)
		stats.PrepBytes += sent
		stats.RespBytes += len(resp)
		if err != nil {
			failAll(live, err)
			break
		}

		clk.Enter(lblRecover)
		slotLen := p.cfg.ResponseBytesPerAccess()
		for _, c := range live {
			p.recoverChain(c, specs[c.first:], resp[c.first*slotLen:])
		}

		retry, climbing := live[:0], false
		for _, c := range live {
			if c.err == nil {
				// Commit the counter only after a successful round.
				c.entry.ct += uint64(len(c.accs))
				continue
			}
			if !climbing {
				clk.Enter(lblLadder)
				climbing = true
			}
			if p.climb(c) {
				retry = append(retry, c)
			} else {
				c.fail(c.err)
			}
		}
		live = retry
	}

	failed := 0
	for i := range accs {
		if accs[i].err != nil {
			failed++
		}
	}
	clk.Done(len(accs), failed, func() string {
		return fmt.Sprintf("keys=%d %s", len(accs), traceLabel(p.prf.EncodeKey(accs[0].Key)))
	})
	return stats
}

func failAll(live []*keyChain, err error) {
	for _, c := range live {
		c.fail(err)
	}
}

// errChainSplit rejects a response whose slots for one chain disagree:
// the server installs a chain whole or not at all, so it answers every
// member with one status.
var errChainSplit = fmt.Errorf("%w: response slots of one key's chain carry different statuses", ErrTampered)

// recoverChain reads c's outcome out of slots, its members' response
// slots in order, against specs, their table specs. A chain succeeds as
// a whole — every slot slotOK and every member's value recovered, each
// from its own slot, so a read behind a write decodes the written value
// — or fails as a whole, leaving c.status and c.err for the ladder.
func (p *LBLProxy) recoverChain(c *keyChain, specs []tableSpec, slots []byte) {
	slotLen := p.cfg.ResponseBytesPerAccess()
	c.status, c.err = slotOK, nil
	for j := range c.accs {
		if slots[j*slotLen] != slots[0] {
			c.err = errChainSplit
			return
		}
	}
	if slots[0] != slotOK {
		c.status, c.err = slots[0], slotError(slots[0])
		copy(c.held[:], slots[slotLen-verifierLen:slotLen])
		return
	}
	for j := range c.accs {
		a := &c.accs[j]
		if a.value, c.err = p.recoverSlot(a.Op, a.Value, &specs[j], slots[j*slotLen+1:(j+1)*slotLen]); c.err != nil {
			return
		}
	}
}

// climb takes the recovery ladder's one step for a chain the server
// rejected, reporting whether the chain should go around again: a stale
// answer is repaired by rebasing to the counter its verifier carries —
// once for the chain, whose members re-key from the rebased counter — at
// most recoveryAllowance times per chain.
func (p *LBLProxy) climb(c *keyChain) bool {
	if c.status != slotStale || c.rebased == recoveryAllowance {
		return false
	}
	c.rebased++
	return p.rebase(c)
}

// A tableSpec says what one request segment encodes: the operation on
// key, keyed at counter ct, built from value — the written value, or a
// read's zeros (newSpec).
type tableSpec struct {
	op    Op
	key   string
	value []byte
	ct    uint64
	// news and olds are the schedule the build carries to recovery, so
	// that recovery derives nothing (one scheduleBytes buffer, carve).
	// news receives the counter-ct+1 labels bit-major, one row per bit
	// value — label (g, b) at (b·Groups+g)·prf.Size — as the build derives
	// them; olds maps each entry to the old bits whose label keys it —
	// olds[g·2^y+e] for entry e of group g — which is how recovery reads
	// the entry index the server reports.
	news, olds []byte
}

// newSpec returns the spec of op on key at counter ct, its schedule
// carved from sched (scheduleBytes long). A read carries the proxy's zero
// value where a write carries the value it writes: the build reads the
// same bytes for both, and its keep mask discards a read's.
func (p *LBLProxy) newSpec(op Op, key string, value []byte, ct uint64, sched []byte) tableSpec {
	if op != OpWrite {
		value = p.zero
	}
	news, olds := p.cfg.carve(sched)
	return tableSpec{op, key, value, ct, news, olds}
}

// A schedulePool recycles the schedule buffers of a proxy's rounds: one
// buffer per round, taken before the first seal and returned when the
// round is over, however it ended. It keeps a
// returned buffer only while it holds no more of them than rounds are
// still in flight, so what it retains follows the load down as well as
// up (at 4 KiB values a buffer is 1 MB) and an idle proxy keeps one. A
// free list rather than a sync.Pool so that a round's allocation count
// stays exact: TestInstrumentationAllocations compares counts, and under
// the race detector a sync.Pool drops a quarter of its puts.
type schedulePool struct {
	mu   sync.Mutex
	free [][]byte
	out  int // buffers taken and not yet returned
}

// get returns a buffer of n bytes; its contents are whatever an earlier
// round left.
func (sp *schedulePool) get(n int) []byte {
	sp.mu.Lock()
	sp.out++
	var b []byte
	if k := len(sp.free); k > 0 {
		b, sp.free = sp.free[k-1], sp.free[:k-1]
	}
	sp.mu.Unlock()
	if cap(b) < n {
		b = make([]byte, n)
	}
	return b[:n]
}

func (sp *schedulePool) put(b []byte) {
	sp.mu.Lock()
	sp.out--
	if len(sp.free) <= sp.out {
		sp.free = append(sp.free, b)
	}
	sp.mu.Unlock()
}

// exchange is the one builder and sender: it encodes specs as one
// request — one segment per spec, back to back — cuts it into frames,
// and returns the server's response, validated to hold one slot per
// spec, and the request bytes sealed. This is the only place that knows
// whether a request crosses the wire as one frame or several: a request
// that fits is one ordinary call, which the transport may retry; a
// longer one is the same bytes sealed and written frame by frame from
// one pooled buffer, which it never retries. Each spec's news and olds
// receive the schedule its table was built with, for the caller to
// recover the response against. On clk it is the table_build stage
// until the first frame is sealed and the rpc stage from then until the
// response lands.
func (p *LBLProxy) exchange(ctx context.Context, clk *obs.Clock, specs []tableSpec) (resp []byte, sent int, err error) {
	cut := frameCutter{cfg: p.cfg, n: len(specs)}
	var runsBuf [2]run
	runs := cut.next(runsBuf[:0])
	w := wire.GetWriter(p.cfg.frameBytes(runs))
	defer wire.PutWriter(w)
	clk.Enter(lblBuild)
	frames := 0
	seal := func() error {
		w.Reset()
		err := p.buildFrame(w.Extend(p.cfg.frameBytes(runs)), runs, specs)
		sent += w.Len()
		frames++
		return err
	}
	if err = seal(); err != nil {
		return nil, 0, err // nothing was sent
	}
	id := p.client.NextID()
	clk.Enter(lblRPC)
	ctx = clk.Context(ctx)
	if cut.done() {
		resp, err = p.client.CallContextID(ctx, id, MsgLBLAccess, w.Bytes())
	} else {
		resp, err = p.client.CallStreamContextID(ctx, id, MsgLBLAccess, func(send func([]byte, bool) error) error {
			for {
				last := cut.done()
				if err := send(w.Bytes(), last); err != nil || last {
					return err
				}
				runs = cut.next(runs[:0])
				// Sealed while earlier frames are on the wire: the time is
				// table_build's, not the round trip's.
				if err := clk.Overlap(lblBuild, seal); err != nil {
					return err
				}
			}
		})
	}
	p.mx.frames.Add(int64(frames))
	if err == nil && len(resp) != len(specs)*p.cfg.ResponseBytesPerAccess() {
		err = fmt.Errorf("%w: response has %d bytes, want %d slots of %d", ErrTampered,
			len(resp), len(specs), p.cfg.ResponseBytesPerAccess())
	}
	return resp, sent, err
}

// buildFrame encodes the frame carrying runs into frame (steps 1.1–1.5
// of §5.2 for those groups): each run's segment header and verifier pair
// when it starts its segment, then its groups' table entries, sealed in
// place across workers.
func (p *LBLProxy) buildFrame(frame []byte, runs []run, specs []tableSpec) error {
	gl := p.cfg.groupBytes()
	var tablesBuf [2][]byte
	tables := tablesBuf[:0]
	total := 0
	for _, r := range runs {
		if r.g0 == 0 {
			s := &specs[r.seg]
			ek := p.prf.EncodeKey(s.key)
			frame = frame[p.cfg.putSegHeader(frame, ek[:]):]
			p.vk.seal(frame[:verifierLen], ek, s.ct)
			p.vk.seal(frame[verifierLen:2*verifierLen], ek, s.ct+1)
			frame = frame[2*verifierLen:]
		}
		n := (r.g1 - r.g0) * gl
		tables = append(tables, frame[:n])
		frame = frame[n:]
		total += r.g1 - r.g0
	}
	outer, inner := fanOut(len(runs), total/len(runs), minGroupsPerBuildWorker)
	return ForEach(len(runs), outer, func(i int) error {
		r := runs[i]
		return p.buildGroups(tables[i], &specs[r.seg], r.g0, r.g1, inner)
	})
}

// The mode byte of a segment header carries the LBLMode — the variant's
// row in lblModes — in its low modeBits bits and, above them, the
// version of the exchange: the
// table-entry format of the request and the layout of the response slot
// together. v2 is the fixed-key-AES pad (secretbox's label pad); v3 keeps
// it and answers with the opened entries' indices and a label digest
// instead of the installed labels; v4 puts the verifier pair at the front
// of the table, answers stale with the record's verifier, and makes a
// point-and-permute entry one padded label. Only in-flight bytes depend on
// the version, so proxy and server must agree on it, and a server refuses
// any other version before reading a record — a definite rejection,
// where a proxy reading another version's answer would call it tampering,
// and a mismatched table would answer slotStale and send the proxy up the
// recovery ladder. Proxies older than the stamp wrote zeros there, which
// reads as no version at all.
//
// A stored record's first byte is laid out the same way, its high bits
// holding the record format: the layout of the label schedule and of
// what follows the labels, since those are the record. Version 1 was the
// keystream layout of prf.LabelGen with point-and-permute decryption bits;
// version 2 colours the labels instead and ends every record with its
// verifier. Records of another version no longer open, and a server
// refuses a request against one with errRecordFormat.
const (
	modeBits     = 4
	entryFormat  = 4
	recordFormat = 2
)

// recordByte is the first byte of a record in mode m.
func (m LBLMode) recordByte() byte { return byte(m) | recordFormat<<modeBits }

// reservedLen is the width of the zero bytes that follow a segment's
// encoded key. They carried a range ownership claim (range id and epoch)
// while proxies fenced each other; now the proxy writes zeros and the
// server skips them unread. They leave the header in the next entryFormat
// bump, once the benchmark stops writing the header by hand.
const reservedLen = 12

// putSegHeader encodes one request segment's header into dst and
// returns its length.
func (c LBLConfig) putSegHeader(dst, encKey []byte) int {
	n := copy(dst, encKey)
	clear(dst[n : n+reservedLen])
	n += reservedLen
	dst[n] = byte(c.Mode) | entryFormat<<modeBits
	n++
	n += binary.PutUvarint(dst[n:], uint64(c.Groups()))
	n += binary.PutUvarint(dst[n:], uint64(c.Mode.entryLen()))
	return n
}

// minGroupsPerBuildWorker bounds the table-build fan-out: below this
// many groups per worker the goroutine handoff costs more than the work
// it offloads. It was set where two workers first beat one by more than
// 10 % on the measured crossover (EXPERIMENTS.md, "Worker crossover";
// BenchmarkWorkerCrossover), when a group cost ≈200 ns to build — 10
// AES blocks eight at a time, 4 two-block seals — so the build fans out
// from 384 groups. A point-and-permute group is now 8 blocks and 4
// one-block pads, ≈140 ns, and two workers gain less there
// (EXPERIMENTS.md, "16-byte entries"). Recovery never fans out: it is
// one table lookup and one 16-byte XOR a group.
const minGroupsPerBuildWorker = 192

// tableWorkers returns the worker count for a CPU-bound pass over
// groups groups under GOMAXPROCS, never exceeding one worker per
// minPerWorker groups.
func tableWorkers(groups, minPerWorker int) int {
	return max(min(runtime.GOMAXPROCS(0), groups/minPerWorker), 1)
}

// fanOut splits tableWorkers across a pass over jobs tables of about
// groups groups each: outer workers take whole tables, and only when
// there are fewer tables than workers does each table fan out further.
func fanOut(jobs, groups, minPerWorker int) (outer, inner int) {
	w := tableWorkers(jobs*groups, minPerWorker)
	return min(w, jobs), max(w/jobs, 1)
}

// ForEach runs fn(i) for i in [0, n) across workers goroutines and
// returns their errors joined; with one worker it runs inline and stops
// at the first error.
func ForEach(n, workers int, fn func(i int) error) error {
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// buildGroups fills table with groups [g0, g1) of s's encryption table
// (table[0] holds group g0) and s.news with those groups' new labels,
// fanning the range out across workers. Entry slots are fixed-size, so
// each worker seals directly into its precomputed offsets; workers share
// nothing but the read-only inputs, the label generator (whose rows each
// worker opens for itself), and one lane each of a seeded crypto-strength
// shuffle stream (see
// shuffle.go). The label schedule and the entry-placement distribution
// are identical to a sequential build of the whole table — placements
// are independent and uniform per group in every variant — so the
// server-visible transcript distribution, and with it the obliviousness
// argument, does not depend on how a table is split across workers or
// frames. workers <= 1 builds inline.
func (p *LBLProxy) buildGroups(table []byte, s *tableSpec, g0, g1, workers int) error {
	gen := p.prf.LabelGen(s.key)
	n := g1 - g0
	if workers <= 1 || n <= 1 {
		return p.buildGroupRange(table, gen, newCryptoShuffler(), s, g0, g1, g0)
	}
	workers = min(workers, n)
	seed := newShuffleSeed()
	return ForEach(workers, workers, func(wk int) error {
		return p.buildGroupRange(table, gen, seed.stream(uint32(wk)), s,
			g0+n*wk/workers, g0+n*(wk+1)/workers, g0)
	})
}

// rowChunk is how many groups of each of its rows a worker derives at
// a time: a multiple of the eight blocks the CTR stream derives at once,
// and small enough that one chunk of every row stays in L1.
const rowChunk = 32

// scheduleRows are the rows of the schedule one worker reads alongside
// each other, from its first group on: each opened once and read
// rowChunk groups at a time into one buffer.
type scheduleRows struct {
	rows [maxEntries]prf.Row // 2^y label rows
	n    int
	buf  []byte // the current chunk: row j's at j·rowChunk blocks
}

func (r *scheduleRows) add(row prf.Row) {
	r.rows[r.n] = row
	r.n++
}

// next derives the next chunk — rowChunk groups, or left if fewer are
// left — and returns its length in groups.
func (r *scheduleRows) next(left int) int {
	if r.buf == nil {
		r.buf = make([]byte, r.n*rowChunk*prf.Size)
	}
	k := min(left, rowChunk)
	for j := 0; j < r.n; j++ {
		r.rows[j].Fill(r.buf[j*rowChunk*prf.Size : (j*rowChunk+k)*prf.Size])
	}
	return k
}

// at returns row j's block for the chunk's i-th group.
func (r *scheduleRows) at(j, i int) []byte {
	o := (j*rowChunk + i) * prf.Size
	return r.buf[o : o+prf.Size]
}

// paint colours the labels of the chunk's first k groups, row b holding
// bit value b's labels (paint).
func (r *scheduleRows) paint(k int, mask uint8) {
	for i := 0; i < k; i++ {
		colour := r.at(0, i)[0] & mask
		for b := 1; b < r.n; b++ {
			paint(r.at(b, i), uint8(b), colour, mask)
		}
	}
}

// buildGroupRange seals groups [g0, g1) of s's table into their slots
// (steps 1.2–1.5 of §5.2 for those groups), leaving their new labels in
// s.news and which old bits key each entry in s.olds. The counter-ct+1
// rows go straight into s.news, one fill each; the counter-ct rows are
// read chunk by chunk. Every row is opened once for the whole range, so
// the worker's allocations do not grow with it. shuf is owned by the
// caller — one per worker. table holds groups starting at absolute group
// gBase — the first group of the run being built, so a frame-sized
// buffer serves any part of the table.
//
// Reads and writes run the same instructions over the same rows: each
// entry carries the new label of its target bits, which a byte mask picks
// — a read's keep the bits keying the entry, a write's are the written
// value's, read from s.value either way (a read's is zeros, newSpec).
func (p *LBLProxy) buildGroupRange(table []byte, gen *prf.LabelGen, shuf *cryptoShuffler, s *tableSpec, g0, g1, gBase int) error {
	cfg := p.cfg
	mode := cfg.Mode
	y, groups := mode.Y(), cfg.Groups()
	nEntries := mode.entries()
	entryLen := mode.entryLen()
	mask := mode.colourMask()
	sealer := secretbox.NewLabelSealer()
	// keep is 0xFF for a read, which keeps the old bits, and 0 for a
	// write, which takes the bits it writes.
	keep := byte(-subtle.ConstantTimeByteEq(uint8(s.op), uint8(OpRead)))
	newLabel := func(b uint8, g int) []byte {
		o := (int(b)*groups + g) * prf.Size
		return s.news[o : o+prf.Size]
	}

	// The counter-ct+1 label rows fill this range of s.news; rows reads
	// the counter-ct label rows, row b for bit value b.
	var rows scheduleRows
	for b := 0; b < nEntries; b++ {
		gen.LabelRow(g0, uint8(b), s.ct+1).Fill(s.news[(b*groups+g0)*prf.Size : (b*groups+g1)*prf.Size])
		rows.add(gen.LabelRow(g0, uint8(b), s.ct))
	}
	if mode.permute() {
		for g := g0; g < g1; g++ {
			colour := newLabel(0, g)[0] & mask
			for b := uint8(1); b < uint8(nEntries); b++ {
				paint(newLabel(b, g), b, colour, mask)
			}
		}
	}

	var perm [maxEntries]int
	for c0 := g0; c0 < g1; c0 += rowChunk {
		k := rows.next(g1 - c0)
		if mode.permute() {
			rows.paint(k, mask)
		}
		for i := 0; i < k; i++ {
			g := c0 + i
			slots := table[(g-gBase)*nEntries*entryLen : (g-gBase+1)*nEntries*entryLen]
			written := groupBits(s.value, g, y)

			if mode.permute() {
				// Point-and-permute: entry e is keyed by the old label whose
				// colour is e, the one for bits e ⊕ r (§10.2), and is the new
				// label XOR that label's pad.
				r := rows.at(0, i)[0] & mask
				for e := uint8(0); e < uint8(nEntries); e++ {
					b := e ^ r
					s.olds[g*nEntries+int(e)] = b
					target := b&keep | written&^keep
					if err := sealer.PadInto(slots[int(e)*entryLen:int(e+1)*entryLen], rows.at(int(b), i), newLabel(target, g)); err != nil {
						return err
					}
				}
				continue
			}

			// Basic / space-optimized: entries are generated in bit-value
			// order, so each is sealed directly into a uniformly random slot
			// (step 1.5). The slot permutation must be cryptographically
			// unpredictable — a guessable placement would leak plaintext
			// bits by position.
			shuf.perm(nEntries, perm[:])
			for b := uint8(0); b < uint8(nEntries); b++ {
				slot := perm[b]
				s.olds[g*nEntries+slot] = b
				target := b&keep | written&^keep
				if err := sealer.SealInto(slots[slot*entryLen:(slot+1)*entryLen], rows.at(int(b), i), newLabel(target, g)); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// errDigest is the §5.4 check failing: the slot's digest is not the XOR
// of the labels its fields, and for a write the written value, select.
var errDigest = fmt.Errorf("%w: label digest mismatch", ErrTampered)

// recoverSlot reads one access's value out of body, its response slot
// past the status, against s, the schedule its table was built with
// (§5.2 step 3 with the §5.4 check). Each group's field is the entry the
// server opened, and s.olds says which old bits key it. A read's value
// is those bits and a write's is the value it wrote; one byte mask picks
// between them, so reads and writes run the same loop. The slot's digest
// must be the XOR of the counter-ct+1 labels the value selects from
// s.news. The server learns one new label a group, the one in the entry
// it opened, so a field it misreports — or, for a write, labels it
// installed other than the written value's — passes only with
// probability 2^-128: for a write this comparison is the write-back check.
func (p *LBLProxy) recoverSlot(op Op, newValue []byte, s *tableSpec, body []byte) ([]byte, error) {
	cfg := p.cfg
	if len(body) != cfg.ValueSize+prf.Size {
		return nil, fmt.Errorf("%w: response slot has %d bytes, want %d", ErrTampered, len(body), cfg.ValueSize+prf.Size)
	}
	y, groups, n := cfg.Mode.Y(), cfg.Groups(), cfg.Mode.entries()
	mask := byte(n - 1)
	// keep is 0xFF for a read, which keeps the old bits, and 0 for a
	// write, which takes the bits it wrote.
	keep := byte(-subtle.ConstantTimeByteEq(uint8(op), uint8(OpRead)))
	value := make([]byte, cfg.ValueSize)
	copy(value, newValue)
	var digest labelDigest
	for i, f := range body[:cfg.ValueSize] {
		g0 := i * 8 / y // the byte's first group
		var old byte
		for j := 0; j < 8; j += y {
			old |= s.olds[(g0+j/y)*n+int(f>>j&mask)] << j
		}
		v := old&keep | value[i]&^keep
		value[i] = v
		for j := 0; j < 8; j += y {
			digest.add(s.news[(int(v>>j&mask)*groups+g0+j/y)*prf.Size:])
		}
	}
	var want [prf.Size]byte
	digest.put(want[:])
	if subtle.ConstantTimeCompare(want[:], body[cfg.ValueSize:]) != 1 {
		return nil, errDigest
	}
	return value, nil
}
