package core

import (
	"fmt"
	"testing"
)

func ringMembers(n int) []string {
	m := make([]string, n)
	for i := range m {
		m[i] = fmt.Sprintf("proxy-%d", i)
	}
	return m
}

// TestRangeOfDistribution checks that key→range placement is close to
// uniform: over a large keyspace no range should be starved or pile up
// far beyond its fair share.
func TestRangeOfDistribution(t *testing.T) {
	const keys = 64 << 10
	var counts [NumRanges]int
	for i := 0; i < keys; i++ {
		counts[RangeOf(fmt.Sprintf("user:%d", i))]++
	}
	mean := keys / NumRanges
	for rid, c := range counts {
		if c < mean/2 || c > mean*2 {
			t.Errorf("range %d holds %d keys, mean %d — placement badly skewed", rid, c, mean)
		}
	}
}

// TestRangeOfDeterministic pins that placement is a pure function of
// the key: routing and claim stamping must always agree.
func TestRangeOfDeterministic(t *testing.T) {
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("key-%d", i)
		if a, b := RangeOf(k), RangeOf(k); a != b {
			t.Fatalf("RangeOf(%q) unstable: %d vs %d", k, a, b)
		}
		if RangeOf(k) >= NumRanges {
			t.Fatalf("RangeOf(%q) = %d out of space", k, RangeOf(k))
		}
	}
}

// TestRingDistribution pins how many of the NumRanges ranges each member
// owns across deployment sizes — placement is a pure function of the
// names, so any change to it shows here — and holds every member within
// half of its fair share either way. The 64 range positions are a sample
// of the ring, so the spread left is the sample's: without the ring
// hash's mix step, five members owned 15/23/16/9/1 and five shards
// 19/11/11/22/1.
func TestRingDistribution(t *testing.T) {
	for n, want := range map[int][]int{
		1: {64},
		2: {35, 29},
		3: {26, 24, 14},
		4: {16, 19, 10, 19},
		5: {15, 10, 8, 14, 17},
		6: {12, 10, 6, 14, 13, 9},
		7: {9, 8, 6, 12, 9, 9, 11},
		8: {7, 6, 6, 11, 7, 8, 10, 9},
	} {
		t.Run(fmt.Sprintf("members=%d", n), func(t *testing.T) {
			r := NewRing(ringMembers(n))
			var owned []int
			for _, m := range r.Members() {
				o := 0
				for rid := uint32(0); rid < NumRanges; rid++ {
					if r.Owner(rid) == m {
						o++
					}
				}
				owned = append(owned, o)
			}
			if fmt.Sprint(owned) != fmt.Sprint(want) {
				t.Errorf("members own %v ranges, want %v", owned, want)
			}
			for i, o := range owned {
				if fair := float64(NumRanges) / float64(n); float64(o) < fair/2 || float64(o) > fair*3/2 {
					t.Errorf("member %d owns %d ranges, fair share %.1f", i, o, fair)
				}
			}
		})
	}
	if got := fmt.Sprint(rangesPerShard(5)); got != "[15 18 11 10 10]" {
		t.Errorf("five shards hold %s ranges, want [15 18 11 10 10]", got)
	}
}

// rangesPerShard counts the ranges RangePlacement puts on each of n shards.
func rangesPerShard(n int) []int {
	held := make([]int, n)
	for _, si := range RangePlacement(n) {
		held[si]++
	}
	return held
}

// ringOwners snapshots owner-per-range for movement comparisons.
func ringOwners(r *Ring) [NumRanges]string {
	var o [NumRanges]string
	for rid := uint32(0); rid < NumRanges; rid++ {
		o[rid] = r.Owner(rid)
	}
	return o
}

// TestRingMinimalMovement is the consistent-hashing contract, exactly:
// adding a member moves ranges only TO the new member, removing one
// moves only the removed member's ranges, and the moved fraction is
// about 1/N either way.
func TestRingMinimalMovement(t *testing.T) {
	cases := []struct{ from, to int }{
		{1, 2}, {2, 3}, {3, 4}, {4, 5}, {7, 8}, // grow by one
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("add_%d_to_%d", tc.from, tc.to), func(t *testing.T) {
			before := ringOwners(NewRing(ringMembers(tc.from)))
			after := ringOwners(NewRing(ringMembers(tc.to)))
			newcomer := fmt.Sprintf("proxy-%d", tc.to-1)
			moved := 0
			for rid := 0; rid < NumRanges; rid++ {
				if before[rid] == after[rid] {
					continue
				}
				moved++
				if after[rid] != newcomer {
					t.Errorf("range %d moved %s→%s, but only moves to the newcomer %s are allowed",
						rid, before[rid], after[rid], newcomer)
				}
			}
			// The newcomer's fair share is NumRanges/to; allow generous
			// slack for hash placement but fail on wholesale reshuffles.
			if max := 3*NumRanges/tc.to + 1; moved > max {
				t.Errorf("adding one member moved %d/%d ranges, want ≤ %d (~1/N)", moved, NumRanges, max)
			}
		})
	}
	for _, n := range []int{2, 3, 5, 8} {
		t.Run(fmt.Sprintf("remove_from_%d", n), func(t *testing.T) {
			full := NewRing(ringMembers(n))
			before := ringOwners(full)
			// Remove the last member; survivors' ranges must not move.
			gone := fmt.Sprintf("proxy-%d", n-1)
			after := ringOwners(NewRing(ringMembers(n - 1)))
			for rid := 0; rid < NumRanges; rid++ {
				if before[rid] != gone && before[rid] != after[rid] {
					t.Errorf("range %d owned by survivor %s moved to %s on unrelated removal",
						rid, before[rid], after[rid])
				}
				if before[rid] == gone && after[rid] == gone {
					t.Errorf("range %d still owned by removed member %s", rid, gone)
				}
			}
		})
	}
}

// TestRingMembershipEdgeCases covers empty rings, duplicates, and
// order-independence.
func TestRingMembershipEdgeCases(t *testing.T) {
	if owner := NewRing(nil).Owner(0); owner != "" {
		t.Errorf("empty ring owner = %q, want \"\"", owner)
	}
	if owner := NewRing([]string{"a"}).Owner(NumRanges); owner != "" {
		t.Errorf("out-of-space range owner = %q, want \"\"", owner)
	}
	dup := ringOwners(NewRing([]string{"a", "b", "a", "", "b"}))
	plain := ringOwners(NewRing([]string{"a", "b"}))
	if dup != plain {
		t.Error("duplicate/empty member names changed the assignment")
	}
	shuffled := ringOwners(NewRing([]string{"b", "a"}))
	if shuffled != plain {
		t.Error("member order changed the assignment")
	}
}

// TestRangePlacement pins the one placement function sharded
// deployments share with proxy placement: every range lands on a valid
// shard, every shard of a realistic deployment holds some, and growing
// the shard set moves ranges only onto the new shard.
func TestRangePlacement(t *testing.T) {
	for n := 1; n <= 8; n++ {
		placement := RangePlacement(n)
		held := make([]int, n)
		for rid, si := range placement {
			if si < 0 || si >= n {
				t.Fatalf("n=%d: range %d placed on shard %d", n, rid, si)
			}
			held[si]++
		}
		for si, c := range held {
			if c == 0 {
				t.Errorf("n=%d: shard %d holds no range (%v)", n, si, held)
			}
		}
		grown := RangePlacement(n + 1)
		for rid := range placement {
			if grown[rid] != placement[rid] && grown[rid] != n {
				t.Errorf("n=%d→%d: range %d moved from shard %d to old shard %d", n, n+1, rid, placement[rid], grown[rid])
			}
		}
	}
	if got, want := RangePlacement(3)[RangeOf("some-key")], RangePlacement(3)[RangeOf("some-key")]; got != want {
		t.Errorf("placement not deterministic: %d then %d", got, want)
	}
}
