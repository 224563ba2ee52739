package secretbox

import "testing"

// TestPermuteGroupsRefusesShortSlices: the kernel writes through raw
// pointers, so PermuteGroups must refuse, before it runs, every run its
// slices cannot hold — an empty or negative run, one past the last group,
// and each slice one byte short — on every build, the kernel's or not,
// while slices of exactly the size asked pass.
func TestPermuteGroupsRefusesShortSlices(t *testing.T) {
	const groups = 8
	var key [16]byte
	var ctrs [2 * GroupPads][PadSize]byte
	for _, c := range []struct {
		name                     string
		table, news, olds, value int
		g0, g1                   int
	}{
		{"empty run", 0, 0, 0, 0, 3, 3},
		{"negative start", 0, 0, 0, 0, -1, 2},
		{"past the last group", 0, 0, 0, 0, 4, groups + 1},
		{"short table", -1, 0, 0, 0, 0, groups},
		{"short news", 0, -1, 0, 0, 0, groups},
		{"short olds", 0, 0, -1, 0, 0, groups},
		{"short value", 0, 0, 0, -1, 0, groups},
		{"exact", 0, 0, 0, 0, 0, groups},
	} {
		table := make([]byte, max(c.g1-c.g0, 0)*GroupPads*PadSize+c.table)
		news := make([]byte, GroupPads*groups*PadSize+c.news)
		olds := make([]byte, GroupPads*groups+c.olds)
		value := make([]byte, groups/4+c.value)
		func() {
			defer func() {
				if r := recover(); (r == nil) != (c.name == "exact") {
					t.Errorf("%s: recovered %v; want a panic exactly where the slices cannot hold the run", c.name, r)
				}
			}()
			PermuteGroups(key, &ctrs, table, news, olds, value, groups, c.g0, c.g1, 0)
		}()
	}
}
