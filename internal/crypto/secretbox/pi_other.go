//go:build purego || !amd64

package secretbox

// padGroupKernel reports false: this build has no π kernel, so PadGroup
// pads through crypto/aes, which picks its own implementation.
func padGroupKernel(rk *roundKeys, dst *[GroupPads * PadSize]byte, labels, bodies *[GroupPads]*[PadSize]byte) bool {
	return false
}

// permuteGroupsKernel reports false: this build has no point-and-permute
// kernel, so the caller builds through its portable path.
func permuteGroupsKernel(key *[16]byte, ctrs *[2 * GroupPads][PadSize]byte, table, news []byte, stride int, olds, value []byte, g0, n int, keep uint64) bool {
	return false
}

// expandKeyKernel reports false: this build has no kernel key expansion.
func expandKeyKernel(key *[16]byte, rk *roundKeys) bool { return false }
