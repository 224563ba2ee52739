package main

import (
	"bytes"
	"encoding/binary"
)

// Every stored value is a pure function of (seed, key index, version):
// an 8-byte header naming the key and the version, then a keystream
// derived from all three. A reader can therefore check any value it
// gets back — regenerate from the header and compare — without knowing
// who wrote it, and an owner checks its own keys for the exact version.

const valueHeader = 8

func encodeValue(dst []byte, seed uint64, key, version uint32) {
	binary.LittleEndian.PutUint32(dst[0:4], key)
	binary.LittleEndian.PutUint32(dst[4:8], version)
	x := seed ^ uint64(key)<<32 ^ uint64(version)
	var block [8]byte
	for i := valueHeader; i < len(dst); i += len(block) {
		x = splitmix64(x)
		binary.LittleEndian.PutUint64(block[:], x)
		copy(dst[i:], block[:])
	}
}

func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
	x = (x ^ x>>27) * 0x94D049BB133111EB
	return x ^ x>>31
}

// A model holds, per key, the version of the last acknowledged write.
// Each key has one owner at a time (its session or lane), and only the
// owner touches its entry, so the slice needs no lock.
type model struct {
	seed      uint64
	valueSize int
	versions  []uint32
}

func newModel(seed uint64, keys, valueSize int) *model {
	return &model{seed: seed, valueSize: valueSize, versions: make([]uint32, keys)}
}

func (m *model) value(key int, version uint32) []byte {
	v := make([]byte, m.valueSize)
	encodeValue(v, m.seed, uint32(key), version)
	return v
}

// wellFormed reports whether got is some version of key's value.
func (m *model) wellFormed(key int, got []byte) bool {
	if len(got) != m.valueSize || binary.LittleEndian.Uint32(got[0:4]) != uint32(key) {
		return false
	}
	return bytes.Equal(got, m.value(key, binary.LittleEndian.Uint32(got[4:8])))
}

// current reports whether got is exactly the last acknowledged version
// of key. Only key's owner may call it.
func (m *model) current(key int, got []byte) bool {
	return bytes.Equal(got, m.value(key, m.versions[key]))
}
