//go:build purego || !amd64

package secretbox

// padGroupKernel reports false: this build has no π kernel, so PadGroup
// pads through crypto/aes, which picks its own implementation.
func padGroupKernel(rk *roundKeys, dst *[GroupPads * PadSize]byte, labels, bodies *[GroupPads]*[PadSize]byte) bool {
	return false
}
