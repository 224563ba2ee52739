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
