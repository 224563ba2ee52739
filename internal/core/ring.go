package core

import (
	"sort"
	"strconv"
)

// Counter-range placement for multi-proxy and sharded deployments.
// Every proxy holds the same PRF secret and can serve any key; the
// record's verifier decides between proxies, since the server installs a
// round only by compare-and-swap against the record its table expects,
// so at most one round per counter value applies whoever sent it
// (lblserver.go). Two proxies serving one key stay correct but pay stale
// laps, each rebasing whenever the other moved the record. Placement
// keeps that rare: keys are folded into a fixed number of counter ranges,
// and a consistent-hash ring places each range on one member, which the
// Router tries first.

// NumRanges is the fixed size of the counter-range space. Ranges — not
// raw keys — are the unit of placement, for proxies and shards alike, so
// the space must be stable across membership changes; 64 ranges still
// split finely across the ≤8-proxy deployments the failover experiment
// scales to.
const NumRanges = 64

// RangeOf maps a plaintext key to its counter range — the one place a
// key is hashed for placement: the proxy's counter table stripes its
// locks by it, the Router places ranges on proxies, and sharded
// deployments place whole ranges on shards (RangePlacement).
func RangeOf(key string) uint32 { return uint32(fnv1a(key) % NumRanges) }

// fnv1a is 64-bit FNV-1a, written out because hash/fnv costs an
// allocation per call on the access path.
func fnv1a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// ringHash places a name on the ring: FNV-1a through splitmix64's
// finalizer. FNV-1a alone leaves the high bits of names that differ in
// their last bytes close together, and the ring orders points by them.
func ringHash(s string) uint64 {
	h := fnv1a(s)
	h = (h ^ h>>30) * 0xbf58476d1ce4e5b9
	h = (h ^ h>>27) * 0x94d049bb133111eb
	return h ^ h>>31
}

// ringVnodes is the number of virtual points each member contributes
// to the ring. More points smooth the range distribution; 128 keeps
// the max/min ownership skew low even at two members.
const ringVnodes = 128

// A Ring is a consistent-hash placement of the NumRanges counter
// ranges on a set of named members (proxies or shards). It is immutable once
// built; membership changes build a new Ring, and consistent hashing
// guarantees the rebuild moves only the ranges that must move — on
// average 1/N of them when one of N members joins or leaves, never a
// range whose owner survived the change.
type Ring struct {
	members []string
	points  []ringPoint       // sorted by hash
	owners  [NumRanges]string // resolved owner per range
}

type ringPoint struct {
	hash  uint64
	owner string
}

// NewRing builds the ring for the given member names. Order does not
// matter and duplicates are ignored; an empty member set yields a ring
// that owns nothing (Owner returns "").
func NewRing(members []string) *Ring {
	r := &Ring{}
	seen := make(map[string]bool, len(members))
	for _, m := range members {
		if m == "" || seen[m] {
			continue
		}
		seen[m] = true
		r.members = append(r.members, m)
	}
	sort.Strings(r.members)
	if len(r.members) == 0 {
		return r
	}
	r.points = make([]ringPoint, 0, len(r.members)*ringVnodes)
	var vbuf [8]byte
	for _, m := range r.members {
		for v := 0; v < ringVnodes; v++ {
			vbuf = [8]byte{byte(v), byte(v >> 8), '#', 'v', 'n', 'o', 'd', 'e'}
			r.points = append(r.points, ringPoint{ringHash(m + string(vbuf[:])), m})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Tie-break deterministically so equal hashes cannot make
		// ownership depend on sort order.
		return r.points[i].owner < r.points[j].owner
	})
	for rid := uint32(0); rid < NumRanges; rid++ {
		r.owners[rid] = r.resolve(rid)
	}
	return r
}

// resolve walks clockwise from the range's position to the first
// member point.
func (r *Ring) resolve(rangeID uint32) string {
	h := ringHash(rangeIDName(rangeID))
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap
	}
	return r.points[i].owner
}

// rangeIDName names a range on the ring; the prefix keeps range points
// from colliding with member vnode points.
func rangeIDName(rangeID uint32) string {
	return "range:" + string([]byte{byte(rangeID), byte(rangeID >> 8), byte(rangeID >> 16), byte(rangeID >> 24)})
}

// Owner returns the member owning rangeID, or "" for an empty ring or
// an out-of-space id.
func (r *Ring) Owner(rangeID uint32) string {
	if len(r.members) == 0 || rangeID >= NumRanges {
		return ""
	}
	return r.owners[rangeID]
}

// OwnerOfKey returns the member owning key's counter range.
func (r *Ring) OwnerOfKey(key string) string { return r.Owner(RangeOf(key)) }

// Members returns the ring's member names in sorted order. The slice
// is shared; callers must not modify it.
func (r *Ring) Members() []string { return r.members }

// RangePlacement spreads the counter ranges over n shards through a
// ring of shard names and returns the shard index holding each range,
// so a sharded deployment places keys by the same unit the Router places
// on proxies: growing or shrinking the shard set relocates only the ranges
// consistent hashing must move.
func RangePlacement(n int) [NumRanges]int {
	names := make([]string, n)
	index := make(map[string]int, n)
	for i := range names {
		names[i] = "shard-" + strconv.Itoa(i)
		index[names[i]] = i
	}
	ring := NewRing(names)
	var placement [NumRanges]int
	for rid := range placement {
		placement[rid] = index[ring.Owner(uint32(rid))]
	}
	return placement
}
