package secretbox

import (
	"bytes"
	"crypto/aes"
	"encoding/hex"
	"testing"
)

// TestExpandKeyKnownAnswer holds the key expansion to FIPS-197 Appendix
// A.1: the 44 words w[0..43] of key 2b7e1516 28aed2a6 abf71588 09cf4f3c.
// Where the π kernel runs, it must also encrypt Appendix B's plaintext
// under that schedule to the appendix's ciphertext, and π's own schedule
// must encrypt as crypto/aes does under π's key.
// fips197A1Words is FIPS-197 Appendix A.1's AES-128 key schedule, the
// 44 words w[0..43] of key 2b7e1516 28aed2a6 abf71588 09cf4f3c.
const fips197A1Words = "2b7e151628aed2a6abf7158809cf4f3c" +
	"a0fafe1788542cb123a339392a6c7605" +
	"f2c295f27a96b9435935807a7359f67f" +
	"3d80477d4716fe3e1e237e446d7a883b" +
	"ef44a541a8525b7fb671253bdb0bad00" +
	"d4d1c6f87c839d87caf2b8bc11f915bc" +
	"6d88a37a110b3efddbf98641ca0093fd" +
	"4e54f70e5f5fc9f384a64fb24ea6dc4f" +
	"ead27321b58dbad2312bf5607f8d292f" +
	"ac7766f319fadc2128d12941575c006e" +
	"d014f9a8c9ee2589e13f0cc8b6630ca6"

func TestExpandKeyKnownAnswer(t *testing.T) {
	want, _ := hex.DecodeString(fips197A1Words)
	key := [aes.BlockSize]byte(want)
	rk := expandKey(key)
	if !bytes.Equal(rk[:], want) {
		t.Fatalf("expandKey(FIPS-197 A.1 key) =\n%x, want\n%x", rk, want)
	}
	if k := piKey(); !bytes.Equal(piRounds[:aes.BlockSize], k[:]) {
		t.Errorf("π's first round key %x is not its key %x", piRounds[:aes.BlockSize], k)
	}

	plain, _ := hex.DecodeString("3243f6a8885a308d313198a2e0370734")
	cipher, _ := hex.DecodeString("3925841d02dc09fbdc118597196a0b32")
	var in [GroupPads]*[PadSize]byte
	for i := range in {
		in[i] = (*[PadSize]byte)(plain)
	}
	got, ok := kernelEncrypt(&rk, &in)
	if !ok {
		t.Skip("no π kernel in this build or on this CPU")
	}
	for i := range got {
		if !bytes.Equal(got[i][:], cipher) {
			t.Errorf("lane %d: FIPS-197 B = %x, want %x", i, got[i], cipher)
		}
	}
	var blocks [GroupPads][PadSize]byte
	for i := range blocks {
		blocks[i] = [PadSize]byte(randBytes(t, PadSize))
		in[i] = &blocks[i]
	}
	got, _ = kernelEncrypt(&piRounds, &in)
	for i := range got {
		var want [PadSize]byte
		if pi.Encrypt(want[:], blocks[i][:]); got[i] != want {
			t.Errorf("lane %d: π(%x) = %x through π's schedule, %x through crypto/aes", i, blocks[i], got[i], want)
		}
	}
}

// TestKernelKeyScheduleKnownAnswer holds the point-and-permute kernel's
// key expansion — AESKEYGENASSIST, the one that expands secret object
// keys — to FIPS-197 Appendix A.1's schedule, and on random keys to the
// table-free Go expansion and to crypto/aes: four blocks encrypted under
// its schedule must be crypto/aes's encryptions under the key. It skips
// where the build or the CPU has no kernel.
func TestKernelKeyScheduleKnownAnswer(t *testing.T) {
	want, _ := hex.DecodeString(fips197A1Words)
	var rk roundKeys
	if !expandKeyKernel((*[aes.BlockSize]byte)(want), &rk) {
		t.Skip("no point-and-permute kernel in this build or on this CPU")
	}
	if !bytes.Equal(rk[:], want) {
		t.Fatalf("kernel schedule of the FIPS-197 A.1 key =\n%x, want\n%x", rk, want)
	}
	for i := 0; i < 200; i++ {
		key := [aes.BlockSize]byte(randBytes(t, aes.BlockSize))
		if expandKeyKernel(&key, &rk); rk != expandKey(key) {
			t.Fatalf("key %x: kernel schedule %x, Go schedule %x", key, rk, expandKey(key))
		}
		block, err := aes.NewCipher(key[:])
		if err != nil {
			t.Fatal(err)
		}
		var in [GroupPads]*[PadSize]byte
		var blocks [GroupPads][PadSize]byte
		for j := range blocks {
			blocks[j] = [PadSize]byte(randBytes(t, PadSize))
			in[j] = &blocks[j]
		}
		got, _ := kernelEncrypt(&rk, &in)
		for j := range got {
			var want [PadSize]byte
			if block.Encrypt(want[:], blocks[j][:]); got[j] != want {
				t.Fatalf("key %x: block %x encrypts to %x under the kernel schedule, %x under crypto/aes", key, blocks[j], got[j], want)
			}
		}
	}
}

// kernelEncrypt runs the kernel as a bare four-lane AES: each body is its
// label, so the label cancels and each entry is AES_rk(label). It reports
// false where the build or the CPU has no kernel.
func kernelEncrypt(rk *roundKeys, in *[GroupPads]*[PadSize]byte) (out [GroupPads][PadSize]byte, ok bool) {
	var dst [GroupPads * PadSize]byte
	if !padGroupKernel(rk, &dst, in, in) {
		return out, false
	}
	for i := range out {
		out[i] = [PadSize]byte(dst[i*PadSize:])
	}
	return out, true
}

// checkPadGroup holds PadGroup over the labels and bodies in data, 128
// bytes, to four single-block pads written from crypto/aes: entry e is
// bodies[e] ⊕ π(labels[e]) ⊕ labels[e].
func checkPadGroup(t *testing.T, data []byte) {
	t.Helper()
	var labels, bodies [GroupPads]*[PadSize]byte
	var want [GroupPads * PadSize]byte
	for e := range labels {
		labels[e] = (*[PadSize]byte)(bytes.Clone(data[e*PadSize:][:PadSize]))
		bodies[e] = (*[PadSize]byte)(bytes.Clone(data[(GroupPads+e)*PadSize:][:PadSize]))
		w := want[e*PadSize:][:PadSize]
		pi.Encrypt(w, labels[e][:])
		for i := range w {
			w[i] ^= labels[e][i] ^ bodies[e][i]
		}
	}
	var got [GroupPads * PadSize]byte
	s := NewLabelSealer()
	if s.PadGroup(&got, &labels, &bodies); got != want {
		t.Errorf("labels‖bodies %x: PadGroup = %x, want %x", data, got, want)
	}
}

// TestPiKernelParity: over random groups, PadGroup — the kernel, where
// it runs — pads exactly as crypto/aes's π does block by block.
func TestPiKernelParity(t *testing.T) {
	for i := 0; i < 1000; i++ {
		checkPadGroup(t, randBytes(t, 2*GroupPads*PadSize))
	}
}

// FuzzPiKernelParity is TestPiKernelParity over generated groups: four
// labels and four bodies, the input zero-extended or cut to 128 bytes.
func FuzzPiKernelParity(f *testing.F) {
	f.Add(make([]byte, 2*GroupPads*PadSize))
	f.Add(bytes.Repeat([]byte{0xff}, 2*GroupPads*PadSize))
	f.Fuzz(func(t *testing.T, data []byte) {
		in := make([]byte, 2*GroupPads*PadSize)
		copy(in, data)
		checkPadGroup(t, in)
	})
}
