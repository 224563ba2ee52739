//go:build !purego

package secretbox

// hasAESNI is whether this CPU has the AES instructions the π kernel
// runs on; without them PadGroup pads through crypto/aes.
var hasAESNI = cpuHasAES()

// padGroupKernel pads a group the way PadGroup does, with AES under rk
// in π's place, four blocks at a time through AES-NI, and reports false,
// doing nothing, on a CPU without it.
func padGroupKernel(rk *roundKeys, dst *[GroupPads * PadSize]byte, labels, bodies *[GroupPads]*[PadSize]byte) bool {
	if !hasAESNI {
		return false
	}
	padGroupAsm(rk, dst, labels, bodies)
	return true
}

// cpuHasAES reports CPUID leaf 1's AES bit (ECX bit 25).
func cpuHasAES() bool

// padGroupAsm sets entry e of dst to bodies[e] ⊕ labels[e] ⊕ AES_rk(labels[e]),
// the four AES encryptions interleaved round by round. It loads every
// input before it stores, so dst may alias labels and bodies.
//
//go:noescape
func padGroupAsm(rk *roundKeys, dst *[GroupPads * PadSize]byte, labels, bodies *[GroupPads]*[PadSize]byte)

// permuteGroupsKernel runs permuteGroupsAsm, reporting false, doing
// nothing, on a CPU without AES-NI.
func permuteGroupsKernel(key *[16]byte, ctrs *[2 * GroupPads][PadSize]byte, table, news []byte, stride int, olds, value []byte, g0, n int, keep uint64) bool {
	if !hasAESNI {
		return false
	}
	permuteGroupsAsm(key, &piRounds, ctrs, &table[0], &news[0], stride, &olds[0], &value[0], g0, n, keep)
	return true
}

// expandKeyKernel sets rk to key's AES-128 schedule as permuteGroupsAsm
// expands it, reporting false, doing nothing, on a CPU without AES-NI.
func expandKeyKernel(key *[16]byte, rk *roundKeys) bool {
	if !hasAESNI {
		return false
	}
	expandKeyAsm(key, rk)
	return true
}

// permuteGroupsAsm is PermuteGroups over groups [g0, g0+n) with n > 0:
// table holds group g0's entries, news and olds are the whole schedule,
// stride bytes a news row, value the written or zero value, and keep all
// ones for a read and zero for a write. It expands key itself with
// AESKEYGENASSIST, and π's schedule is pi.
//
//go:noescape
func permuteGroupsAsm(key *[16]byte, pi *roundKeys, ctrs *[2 * GroupPads][PadSize]byte, table, news *byte, stride int, olds, value *byte, g0, n int, keep uint64)

// expandKeyAsm sets rk to key's AES-128 schedule (FIPS-197 §5.2),
// through AESKEYGENASSIST: no table lookup at a key-dependent address.
//
//go:noescape
func expandKeyAsm(key *[16]byte, rk *roundKeys)
