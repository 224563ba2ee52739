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
		s.Pad((*[prf.Size]byte)(dst), (*[prf.Size]byte)(key), (*[prf.Size]byte)(label))
		return nil
	}
	return s.SealInto(dst, key, label)
}

// keepMask is 0xFF for a read, which keeps the old bits, and 0 for a
// write, which takes the bits it writes: the byte mask the build and
// recovery pick an entry's target bits by, with no branch on the
// operation.
func keepMask(op Op) byte { return byte(-subtle.ConstantTimeByteEq(uint8(op), uint8(OpRead))) }

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

// ProxyAESBlocks returns the AES work one access costs the proxy, the
// floor of its table build (§6.3.2's p): ctr AES-CTR keystream blocks —
// the 2^y labels of every group at the access's counter and at the next
// (prf.LabelGen's rows) — and single one-block π calls: every entry's pad
// (padBlocks), and the verifier pair.
func (c LBLConfig) ProxyAESBlocks() (ctr, single int) {
	entries := c.Groups() * c.Mode.entries()
	return 2 * entries, entries*c.Mode.padBlocks() + 2
}

// ServerAESBlocks returns the AES work one access costs the server: one
// pad a group, which opens the group's one entry under point-and-permute
// and every trial of it otherwise (secretbox.LabelOpener). It derives no
// labels.
func (c LBLConfig) ServerAESBlocks() (ctr, single int) {
	return 0, c.Groups() * c.Mode.padBlocks()
}

// padBlocks is how many π calls one entry's pad takes: a tagged entry's
// pad-and-tag block is two, a point-and-permute pad one (secretbox).
func (m LBLMode) padBlocks() int {
	if lblModes[m].tag == 0 {
		return 1
	}
	return 2
}

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

// Access is AccessContext under no deadline or span, with an empty
// second result so that its one caller compiles unchanged. It remains
// only because the repository benchmark calls it.
func (p *LBLProxy) Access(op Op, key string, newValue []byte) ([]byte, struct{}, error) {
	v, err := p.AccessContext(context.Background(), op, key, newValue)
	return v, struct{}{}, err
}

// AccessContext performs one oblivious access (§5.2) under ctx:
// cancellation plus the active trace span. For reads, newValue is
// ignored and the stored value is returned. For writes, newValue
// (exactly ValueSize bytes) replaces the stored value; the returned
// slice echoes the written value. An access that finds its key free runs
// at once, a round of one on its caller's goroutine and context, the
// proxy-side stage tree (counter_acquire, table_build, rpc,
// label_recover, and recovery_ladder when it climbs) under the caller's
// span. One that finds its key's round in flight is held on
// the key's counter entry, and when that round returns everything held
// for the key leaves together, folded into one access in the order it was
// admitted (lead). Nothing else makes an access wait — no timer, no size
// to fill — and which access waits for which depends on key identity and
// arrival time only, never on operation type.
func (p *LBLProxy) AccessContext(ctx context.Context, op Op, key string, newValue []byte) ([]byte, error) {
	w := &keyWaiter{ctx: ctx}
	acc := &w.acc[0]
	acc.BatchOp = BatchOp{Op: op, Key: key, Value: newValue}
	if err := p.check(&acc.BatchOp); err != nil {
		return nil, err
	}
	w.admitted = p.sessions.Now()
	e := p.counters.entry(key)
	alone := [1]*keyWaiter{w}
	held, left := alone[:], w.admitted // an access that finds its key free leaves as it arrives
	if !e.take(w) {
		<-w.wake
		if w.carry == nil {
			return acc.value, acc.err
		}
		held, left = w.carry, p.sessions.Now()
	}
	p.lead(e, held, left)
	return acc.value, acc.err
}

// lead carries held — single accesses to one key in admission order, the
// caller's own first, out of the line since left — through one round on
// the caller's goroutine, folded into one access (foldKey). The caller
// owns e, the key's entry; the round gives it up. A round of one runs
// under its access's own context, deadline included; a fold of several
// under no member's, so that one member's cancellation never fails
// another's access (release shed the members already expired), and under
// the leader's span.
func (p *LBLProxy) lead(e *counterEntry, held []*keyWaiter, left time.Time) {
	n := len(held)
	members, ctx := held[0].acc[:], held[0].ctx
	if n > 1 {
		members = make([]roundAccess, n)
		for i, w := range held {
			members[i] = w.acc[0]
		}
		ctx = trace.ContextWith(context.Background(), trace.FromContext(ctx))
	}
	p.mx.chainLen.Observe(time.Duration(n)) // a count, on the histogram's integer scale
	p.round(ctx, []keyRound{foldKey(members)}, e)
	returned := p.sessions.Now()
	for i, w := range held {
		w.acc[0] = members[i]
		// The time an access was held for its key is a stage of its own,
		// never folded into the round trip. The label carries no key
		// material: how many accesses the round carried for the key and
		// this one's place among them.
		p.sessions.Record(w.admitted, trace.FromContext(w.ctx).TraceID(), failedAccesses(members[i].err),
			func() string { return fmt.Sprintf("chain=%d member=%d", n, i) },
			left.Sub(w.admitted), returned.Sub(left))
		if i > 0 {
			close(w.wake)
		}
	}
}

// A BatchResult is one access's outcome within a batched round: the
// value (the stored value for a read, the written value echoed for a
// write) or that access's individual error.
type BatchResult struct {
	Value []byte
	Err   error
}

// AccessBatch performs many oblivious accesses under ctx in one round
// trip: one round acquires every key's counter, builds all encryption
// tables, sends them as one request, and recovers every value from the
// one response (§5.2 amortized; see DESIGN.md).
//
// Every access's outcome is reported at its own index: reads yield the
// stored value, writes echo the written value. A key may appear more
// than once: its accesses are folded into one (foldKey) and answered as
// if applied in input order, so a read after a write to the same key
// returns the written value — still one segment of the one round trip.
// Only batches past the per-round key cap are split into several
// rounds. One access's failure fails only itself: an invalid op
// (unknown op code, wrong write size) is never sent, and an unloaded
// key's access fails while the rest complete, their counters
// committed.
func (p *LBLProxy) AccessBatch(ctx context.Context, ops []BatchOp) []BatchResult {
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
	// a key's accesses sit next to each other in input order — the order
	// its fold applies them in.
	sort.SliceStable(order, func(a, b int) bool { return ops[order[a]].Key < ops[order[b]].Key })
	accs, keys := make([]roundAccess, len(order)), make([]keyRound, 0, len(order))
	for lo := 0; lo < len(order); {
		hi := lo
		for ; hi < len(order) && ops[order[hi]].Key == ops[order[lo]].Key; hi++ {
			accs[hi].BatchOp = ops[order[hi]]
		}
		keys = append(keys, foldKey(accs[lo:hi]))
		lo = hi
	}
	for perRound := p.cfg.roundKeys(); len(keys) > 0; {
		n := min(perRound, len(keys))
		p.round(ctx, keys[:n], nil)
		keys = keys[n:]
	}
	for j, i := range order {
		results[i] = BatchResult{Value: accs[j].value, Err: accs[j].err}
	}
	return results
}

// A roundAccess is one access on its way through a round.
type roundAccess struct {
	BatchOp
	value []byte // the outcome: the recovered value,
	err   error  // or why there is none
}

// A keyRound is a round's accesses to one key and the one access the round
// sends for them (foldKey): one segment, one counter step, one install.
// Every member was invoked before the table was built and is answered
// after the round returns, so ordering the members at the install point
// is a valid linearization: settle answers each from what the response
// says the key held before (recoverSlot).
type keyRound struct {
	BatchOp               // the fold: a write of the last value written if any member writes, else a read
	members []roundAccess // the accesses folded, in the order they apply; their outcomes
	entry   *counterEntry
	// What the last lap's response said: the rejection its slot carried,
	// if it was one, for the ladder to answer, and the error the key's
	// accesses fail with if it cannot — the rejection's, or ErrTampered's
	// with status left slotOK, nil when the value recovered. held is a
	// stale answer's verifier: the one the server's record holds
	// (reconcile.go).
	status byte
	err    error
	held   [verifierLen]byte
	// Laps of the recovery ladder this key has climbed.
	rebased int
}

// foldKey folds members — one key's accesses, in the order they apply —
// into one access: a write of the last value written if any member
// writes, else a read. Who is folded with whom depends on key identity
// and arrival or input order alone, and the build is op-independent, so
// the segment is the same for any mix of members.
func foldKey(members []roundAccess) keyRound {
	k := keyRound{BatchOp: BatchOp{Op: OpRead, Key: members[0].Key}, members: members}
	for _, m := range members {
		if m.Op == OpWrite {
			k.Op, k.Value = OpWrite, m.Value
		}
	}
	return k
}

func (c *keyRound) fail(err error) {
	for i := range c.members {
		c.members[i].value, c.members[i].err = nil, err
	}
}

// settle answers every member from old, the value the key held before the
// round: a read with what the latest member before it wrote, or old if
// none did, and a write with its own value echoed. Each member gets a
// value of its own, the first member old's buffer.
func (c *keyRound) settle(old []byte) {
	cur := old
	for i := range c.members {
		m := &c.members[i]
		v := old
		if i > 0 {
			v = make([]byte, len(old))
		}
		if m.Op == OpWrite {
			copy(v, m.Value)
		} else {
			copy(v, cur)
		}
		m.value, m.err, cur = v, nil, v
	}
}

// recoveryAllowance bounds the rebases per key a round climbs. One rebase
// repairs any desynchronized counter, however far the record moved; the
// allowance is >1 because while two proxies serve one key the other can
// advance the record again between our rebase and its retry, a transient
// that resolves within a lap or two.
const recoveryAllowance = 3

// round is the one LBL access procedure (§5.2, Fig 1), for k ≥ 1 keys in
// sorted key order, each named once, its accesses folded: own each key's
// counter, then build, send, and judge each key's access — recover and
// commit on success, climb the recovery ladder and go around again on a
// stale answer it can repair, fail otherwise. Outcomes land in the keys'
// members; one key's failure never fails its round mates. An ambiguous
// failure leaves each counter where it was: the key's next access is its
// probe (reconcile.go).
// owned, when non-nil, is the entry of the one key keys name, which the
// caller owns already (lead); otherwise the round takes its keys in
// order, each after whatever was in line for it, so rounds cannot
// deadlock and a hot key's held accesses cannot starve a multi-key round.
// Either way the round gives its keys up as it returns.
func (p *LBLProxy) round(ctx context.Context, keys []keyRound, owned *counterEntry) {
	clk, ctx := p.start(ctx, "lbl_access")

	// Per-key serialization: the label schedule is counter-indexed,
	// so a key's rounds must not interleave (see counterTable).
	clk.Enter(lblAcquire)
	live := make([]*keyRound, len(keys))
	defer func() {
		for i := range keys {
			p.counters.release(keys[i].entry)
		}
	}()
	accesses := 0
	for i := range keys {
		if keys[i].entry = owned; owned == nil {
			keys[i].entry = p.counters.acquire(keys[i].Key)
		}
		live[i] = &keys[i]
		accesses += len(keys[i].members)
	}
	p.mx.keys.Add(int64(accesses))

	specs := make([]tableSpec, 0, len(keys))
	per := p.cfg.scheduleBytes()
	sched := p.schedules.get(len(keys) * per)
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
		for i, c := range live {
			specs = append(specs, p.newSpec(c.Op, c.Key, c.Value, c.entry.ct, sched[i*per:(i+1)*per]))
		}
		resp, err := p.exchange(ctx, &clk, specs)
		if err != nil {
			failAll(live, err)
			break
		}

		clk.Enter(lblRecover)
		slotLen := p.cfg.ResponseBytesPerAccess()
		for i, c := range live {
			p.recoverKey(c, &specs[i], resp[i*slotLen:(i+1)*slotLen])
		}

		retry, climbing := live[:0], false
		for _, c := range live {
			if c.err == nil {
				// Commit the counter only after a successful round.
				c.entry.ct++
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
	for i := range keys {
		for _, m := range keys[i].members {
			if m.err != nil {
				failed++
			}
		}
	}
	clk.Done(accesses, failed, func() string {
		return fmt.Sprintf("keys=%d %s", accesses, traceLabel(p.prf.EncodeKey(keys[0].Key)))
	})
}

func failAll(live []*keyRound, err error) {
	for _, c := range live {
		c.fail(err)
	}
}

// recoverKey reads c's outcome out of slot, its response slot, against s,
// its table spec: every member answered (settle) when the slot is slotOK
// and the value recovers, else c.status and c.err left for the ladder.
func (p *LBLProxy) recoverKey(c *keyRound, s *tableSpec, slot []byte) {
	c.status, c.err = slot[0], slotError(slot[0])
	if c.status != slotOK {
		copy(c.held[:], slot[len(slot)-verifierLen:])
		return
	}
	old := make([]byte, p.cfg.ValueSize)
	if c.err = p.recoverSlot(old, s, slot[1:]); c.err == nil {
		c.settle(old)
	}
}

// climb takes the recovery ladder's one step for a key the server
// rejected, reporting whether it should go around again: a stale answer
// is repaired by rebasing to the counter its verifier carries, at most
// recoveryAllowance times per key.
func (p *LBLProxy) climb(c *keyRound) bool {
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
// seals each into one pooled buffer as the transport asks for it, and
// returns the server's response, validated to hold one slot per spec.
// Whether a request is retried is the transport's call, made from what
// the producer sends: a request of one frame is resent from the buffer
// it was sealed into, one of several is sent once. Each spec's news and olds receive the schedule its table
// was built with, for the caller to recover the response against. On clk
// it is the table_build stage until the first frame is sealed and the
// rpc stage from then until the response lands.
func (p *LBLProxy) exchange(ctx context.Context, clk *obs.Clock, specs []tableSpec) ([]byte, error) {
	cut := frameCutter{cfg: p.cfg, n: len(specs)}
	var runsBuf [2]run
	runs := cut.next(runsBuf[:0])
	w := wire.GetWriter(p.cfg.frameBytes(runs))
	defer wire.PutWriter(w)
	clk.Enter(lblBuild)
	frames := 0
	seal := func() error {
		w.Reset()
		frames++
		return p.buildFrame(w.Extend(p.cfg.frameBytes(runs)), runs, specs)
	}
	if err := seal(); err != nil {
		return nil, err // nothing was sent
	}
	clk.Enter(lblRPC)
	resp, err := p.client.CallStream(clk.Context(ctx), MsgLBLAccess, func(send func([]byte, bool) error) error {
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
	p.mx.frames.Add(int64(frames))
	if err == nil && len(resp) != len(specs)*p.cfg.ResponseBytesPerAccess() {
		err = fmt.Errorf("%w: response has %d bytes, want %d slots of %d", ErrTampered,
			len(resp), len(specs), p.cfg.ResponseBytesPerAccess())
	}
	return resp, err
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
// point-and-permute entry one padded label; v5 changes no byte but makes a
// request name each key at most once, where v4's named a key several times
// in a row as a chain, applied in order and installed whole — so a v4
// proxy's chain is refused here definitely instead of getting split
// statuses back, which it would read as tampering. Only in-flight bytes
// and their rules depend on the version, so proxy and server must agree
// on it, and a server refuses
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
	entryFormat  = 5
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
// it offloads. It is set where two workers first beat one by more than
// 10 % on the measured crossover (EXPERIMENTS.md, "Worker crossover";
// BenchmarkWorkerCrossover). Re-taken with point-and-permute groups built
// by the fused kernel (a group ≈52 ns on one worker): 2,048 groups read
// 1.08× (median of 28 pairs), 4,096 groups 1.24× (28 pairs). So the build
// fans out from 4,096 groups: a 1 KiB value's table and up. Recovery
// never fans out: it is one table lookup and one 16-byte XOR a group.
const minGroupsPerBuildWorker = 2048

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
// nothing but the read-only inputs, the label generator, and, in the
// modes that shuffle, one lane each of a seeded crypto-strength shuffle
// stream (see shuffle.go). The label schedule and the entry-placement
// distribution are identical to a sequential build of the whole table —
// placements are independent and uniform per group in every variant — so
// the server-visible transcript distribution, and with it the
// obliviousness argument, does not depend on how a table is split across
// workers or frames. workers <= 1 builds inline. Point-and-permute places
// every entry by its key's colour, so its workers get no shuffle source.
func (p *LBLProxy) buildGroups(table []byte, s *tableSpec, g0, g1, workers int) error {
	gen := p.prf.LabelGen(s.key)
	n := g1 - g0
	shuffles := !p.cfg.Mode.permute()
	if workers <= 1 || n <= 1 {
		var w *buildWorker
		if shuffles {
			w = &buildWorker{shuf: newCryptoShuffler()}
		}
		return p.buildGroupRange(table, gen, w, s, g0, g1, g0)
	}
	workers = min(workers, n)
	var seed shuffleSeed
	if shuffles {
		seed = newShuffleSeed()
	}
	return ForEach(workers, workers, func(wk int) error {
		var w *buildWorker
		if shuffles {
			w = &buildWorker{shuf: seed.stream(uint32(wk))}
		}
		return p.buildGroupRange(table, gen, w, s, g0+n*wk/workers, g0+n*(wk+1)/workers, g0)
	})
}

// A buildWorker is what one table-build worker of a shuffling mode owns:
// its shuffle stream and its sealer, in one heap object, since a sealer's
// scratch reaches π through an interface and would escape from a
// worker's stack.
type buildWorker struct {
	shuf   cryptoShuffler
	sealer secretbox.LabelSealer
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

// block returns row j's block for the chunk's i-th group.
func (r *scheduleRows) block(j, i int) *[prf.Size]byte {
	return (*[prf.Size]byte)(r.buf[(j*rowChunk+i)*prf.Size:])
}

// buildGroupRange seals groups [g0, g1) of s's table into their slots
// (steps 1.2–1.5 of §5.2 for those groups), leaving their new labels in
// s.news and which old bits key each entry in s.olds. w is owned by the
// caller — one per worker — and nil under point-and-permute, which
// neither shuffles nor seals through it. table holds groups starting at
// absolute group gBase — the first group of the run being built, so a
// frame-sized buffer serves any part of the table.
//
// Reads and writes run the same instructions over the same rows: each
// entry carries the new label of its target bits, which a byte mask picks
// — a read's keep the bits keying the entry, a write's are the written
// value's, read from s.value either way (a read's is zeros, newSpec).
func (p *LBLProxy) buildGroupRange(table []byte, gen *prf.LabelGen, w *buildWorker, s *tableSpec, g0, g1, gBase int) error {
	cfg := p.cfg
	mode := cfg.Mode
	groups, nEntries := cfg.Groups(), mode.entries()
	keep := keepMask(s.op)
	if mode.permute() {
		if !p.permuteKernel(table, gen, s, g0, g1, gBase, keep) {
			p.buildPermuteRange(table, gen, s, g0, g1, gBase, keep)
		}
		return nil
	}

	// Basic / space-optimized: entries are generated in bit-value order,
	// so each is sealed directly into a uniformly random slot (step 1.5).
	// The slot permutation must be cryptographically unpredictable — a
	// guessable placement would leak plaintext bits by position.
	var rows scheduleRows
	p.openRows(&rows, gen, s, g0, g1)
	y, entryLen := mode.Y(), mode.entryLen()
	var perm [maxEntries]int
	for c0 := g0; c0 < g1; c0 += rowChunk {
		k := rows.next(g1 - c0)
		for i := 0; i < k; i++ {
			g := c0 + i
			slots := table[(g-gBase)*nEntries*entryLen : (g-gBase+1)*nEntries*entryLen]
			written := groupBits(s.value, g, y)
			w.shuf.perm(nEntries, perm[:])
			for b := uint8(0); b < uint8(nEntries); b++ {
				slot := perm[b]
				s.olds[g*nEntries+slot] = b
				target := b&keep | written&^keep
				o := (int(target)*groups + g) * prf.Size
				if err := w.sealer.SealInto(slots[slot*entryLen:(slot+1)*entryLen], rows.at(int(b), i), s.news[o:o+prf.Size]); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// openRows fills groups [g0, g1) of s.news with their counter-ct+1
// labels, one row fill per bit value, and opens in rows the counter-ct
// label rows from g0, row b for bit value b, for the caller to read chunk
// by chunk. Every row is opened once for the whole range, so a worker's
// allocations do not grow with it.
func (p *LBLProxy) openRows(rows *scheduleRows, gen *prf.LabelGen, s *tableSpec, g0, g1 int) {
	groups := p.cfg.Groups()
	for b := 0; b < p.cfg.Mode.entries(); b++ {
		gen.LabelRow(g0, uint8(b), s.ct+1).Fill(s.news[(b*groups+g0)*prf.Size : (b*groups+g1)*prf.Size])
		rows.add(gen.LabelRow(g0, uint8(b), s.ct))
	}
}

// permuteKernel builds groups [g0, g1) of s's point-and-permute table as
// buildPermuteRange does, byte for byte, through secretbox's fused kernel
// (PermuteGroups), and reports false, doing nothing, where that kernel
// does not run.
func (p *LBLProxy) permuteKernel(table []byte, gen *prf.LabelGen, s *tableSpec, g0, g1, gBase int, keep byte) bool {
	const n = secretbox.GroupPads
	var ctrs [2 * n][prf.Size]byte
	for b := range n {
		ctrs[b] = prf.Counter(0, uint8(b), s.ct+1)
		ctrs[n+b] = prf.Counter(0, uint8(b), s.ct)
	}
	return secretbox.PermuteGroups(gen.Key(), &ctrs, table[(g0-gBase)*n*prf.Size:], s.news, s.olds, s.value,
		p.cfg.Groups(), g0, g1, keep)
}

// buildPermuteRange is buildGroupRange under point-and-permute, one pass
// a group over fixed-size blocks: the portable path, and the reference
// the kernel (permuteKernel) is held to. Every point-and-permute row of
// lblModes has y = 2 (TestPermuteModesAreY2), so a group is four 16-byte
// entries, its bits two of a value byte's, and its labels' colours their
// first byte's low two bits. Per group it paints the four new labels and
// the chunk's four old ones (paint), writes which old bits key each entry
// to s.olds — entry e is keyed by the old label whose colour is e, the
// one for bits e ⊕ r (§10.2) — and pads the four entries in one sealer
// call.
func (p *LBLProxy) buildPermuteRange(table []byte, gen *prf.LabelGen, s *tableSpec, g0, g1, gBase int, keep byte) {
	const n = secretbox.GroupPads
	const mask = n - 1
	groups := p.cfg.Groups()
	var rows scheduleRows
	p.openRows(&rows, gen, s, g0, g1)
	sealer := new(secretbox.LabelSealer)
	var news, olds, keys, bodies [n]*[prf.Size]byte
	for c0 := g0; c0 < g1; c0 += rowChunk {
		k := rows.next(g1 - c0)
		for i := 0; i < k; i++ {
			g := c0 + i
			for b := range news {
				news[b] = (*[prf.Size]byte)(s.news[(b*groups+g)*prf.Size:])
				olds[b] = rows.block(b, i)
			}
			rn, r := news[0][0]&mask, olds[0][0]&mask
			for b := 1; b < n; b++ {
				paint(news[b][:], uint8(b), rn, mask)
				paint(olds[b][:], uint8(b), r, mask)
			}
			written := s.value[g/n] >> (g % n * 2) & mask
			keyedBy := (*[n]byte)(s.olds[g*n:])
			for e := range keys {
				b := uint8(e) ^ r
				keyedBy[e] = b
				keys[e], bodies[e] = olds[b], news[b&keep|written&^keep]
			}
			sealer.PadGroup((*[n * prf.Size]byte)(table[(g-gBase)*n*prf.Size:]), &keys, &bodies)
		}
	}
}

// errDigest is the §5.4 check failing: the slot's digest is not the XOR
// of the labels its fields, and for a write the written value, select.
var errDigest = fmt.Errorf("%w: label digest mismatch", ErrTampered)

// recoverSlot reads what the key held before the access into old, out of
// body, its response slot past the status, against s, the schedule its
// table was built with (§5.2 step 3 with the §5.4 check). Each group's
// field is the entry the server opened, and s.olds says which old bits
// key it: those are old's. The labels installed are those of the value
// the access leaves — old for a read, s.value for a write, one byte mask
// picking between them so that reads and writes run the same loop — and
// the slot's digest must be the XOR of the counter-ct+1 labels that value
// selects from s.news. The server learns one new label a group, the one
// in the entry it opened, so a field it misreports — or, for a write,
// labels it installed other than the written value's — passes only with
// probability 2^-128: for a write this comparison is the write-back check.
func (p *LBLProxy) recoverSlot(old []byte, s *tableSpec, body []byte) error {
	cfg := p.cfg
	if len(body) != cfg.ValueSize+prf.Size {
		return fmt.Errorf("%w: response slot has %d bytes, want %d", ErrTampered, len(body), cfg.ValueSize+prf.Size)
	}
	y, groups, n := cfg.Mode.Y(), cfg.Groups(), cfg.Mode.entries()
	mask := byte(n - 1)
	keep := keepMask(s.op)
	var digest labelDigest
	for i, f := range body[:cfg.ValueSize] {
		g0 := i * 8 / y // the byte's first group
		var o byte
		for j := 0; j < 8; j += y {
			o |= s.olds[(g0+j/y)*n+int(f>>j&mask)] << j
		}
		old[i] = o
		v := o&keep | s.value[i]&^keep
		for j := 0; j < 8; j += y {
			digest.add(s.news[(int(v>>j&mask)*groups+g0+j/y)*prf.Size:])
		}
	}
	var want [prf.Size]byte
	digest.put(want[:])
	if subtle.ConstantTimeCompare(want[:], body[cfg.ValueSize:]) != 1 {
		return errDigest
	}
	return nil
}
