package secretbox

// PermuteGroups builds groups [g0, g1) of one access's point-and-permute
// encryption table (LBL-ORTOA §5.2 steps 1.2–1.5 under §10.2, y = 2) in
// one pass a group, and reports true; or reports false, doing nothing,
// where no kernel runs: a build with the purego tag, an arch other than
// amd64, a CPU without AES-NI. The caller then builds through its
// portable path (internal/core's buildPermuteRange), whose bytes these
// are.
//
// The object's labels are AES-128 under key of counter blocks: ctrs
// holds, for group 0, the block of bit value b at counter ct+1 at index
// b and at counter ct at index GroupPads+b, and group g's block is
// group 0's with g written big-endian into its last six bytes (the
// layout of prf.Counter). Per group g the pass
//   - derives the four new labels N_b (ct+1) and the four old ones L_b
//     (ct), and paints each set: label b's colour, the low two bits of its
//     first byte, becomes b ⊕ r, r the colour of label 0 of its set;
//   - stores N_b at news[(b·groups+g)·16:];
//   - stores e ⊕ r, the old bits keying entry e, at olds[4g+e];
//   - stores entry e at table[(g-g0)·64+16e:]: T ⊕ L ⊕ π(L) for L the old
//     label of bits e ⊕ r, where T is N of those bits for a read (keep
//     0xFF) and N of the group's written bits w — value's bits 2g, 2g+1 —
//     for a write (keep 0).
//
// The kernel holds two groups' labels in registers at a time, eight AES
// lanes in flight, and takes no branch and reads no address that depends
// on a secret: r, w and keep select through masks and conditional swaps,
// and the key is expanded by AESKEYGENASSIST, with no table lookup.
// It panics on an empty run or a slice too short for the groups asked.
func PermuteGroups(key [16]byte, ctrs *[2 * GroupPads][PadSize]byte, table, news, olds, value []byte, groups, g0, g1 int, keep byte) bool {
	n := g1 - g0
	if g0 < 0 || n <= 0 || g1 > groups || len(table) < n*GroupPads*PadSize ||
		len(news) < GroupPads*groups*PadSize || len(olds) < GroupPads*groups || len(value)*4 < groups {
		panic("secretbox: PermuteGroups past its slices")
	}
	return permuteGroupsKernel(&key, ctrs, table, news, groups*PadSize, olds, value, g0, n, -uint64(keep&1))
}
