package fhe

import (
	"bytes"
	"math/big"
	"testing"
	"testing/quick"
)

// testParams are small fast parameters for unit tests.
func testParams(t *testing.T) Parameters {
	t.Helper()
	p, err := NewParameters(64, 110)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestModMulAgainstBig(t *testing.T) {
	f := func(a, b, m uint64) bool {
		m |= 1 << 40 // keep m large-ish and nonzero
		m &= (1 << 62) - 1
		a %= m
		b %= m
		got := modMul(a, b, m)
		want := new(big.Int).Mul(new(big.Int).SetUint64(a), new(big.Int).SetUint64(b))
		want.Mod(want, new(big.Int).SetUint64(m))
		return got == want.Uint64()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestModPow(t *testing.T) {
	const p = 97
	if got := modPow(3, 0, p); got != 1 {
		t.Errorf("3^0 = %d", got)
	}
	if got := modPow(3, 96, p); got != 1 { // Fermat
		t.Errorf("3^96 mod 97 = %d, want 1", got)
	}
	if got := modPow(5, 3, p); got != 125%97 {
		t.Errorf("5^3 mod 97 = %d", got)
	}
}

func TestFindNTTPrimes(t *testing.T) {
	primes, err := findNTTPrimes(55, 1024, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(primes) != 3 {
		t.Fatalf("got %d primes", len(primes))
	}
	seen := map[uint64]bool{}
	for _, p := range primes {
		if seen[p] {
			t.Errorf("duplicate prime %d", p)
		}
		seen[p] = true
		if (p-1)%(2*1024) != 0 {
			t.Errorf("prime %d is not 1 mod 2N", p)
		}
		if !new(big.Int).SetUint64(p).ProbablyPrime(64) {
			t.Errorf("%d is not prime", p)
		}
	}
	// Deterministic.
	again, err := findNTTPrimes(55, 1024, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range primes {
		if primes[i] != again[i] {
			t.Error("findNTTPrimes is not deterministic")
		}
	}
}

func TestNTTRoundTrip(t *testing.T) {
	const n = 128
	primes, err := findNTTPrimes(55, n, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := newNTTContext(primes[0], n)
	if err != nil {
		t.Fatal(err)
	}
	a := make([]uint64, n)
	for i := range a {
		a[i] = uint64(i*i+7) % primes[0]
	}
	orig := append([]uint64(nil), a...)
	ctx.forward(a)
	ctx.inverse(a)
	for i := range a {
		if a[i] != orig[i] {
			t.Fatalf("NTT roundtrip mismatch at %d: %d != %d", i, a[i], orig[i])
		}
	}
}

func TestNTTMulMatchesSchoolbook(t *testing.T) {
	const n = 32
	primes, err := findNTTPrimes(55, n, 1)
	if err != nil {
		t.Fatal(err)
	}
	p := primes[0]
	ctx, err := newNTTContext(p, n)
	if err != nil {
		t.Fatal(err)
	}
	a := make([]uint64, n)
	b := make([]uint64, n)
	for i := range a {
		a[i] = uint64(i + 1)
		b[i] = uint64(3*i + 2)
	}
	// Schoolbook negacyclic product.
	want := make([]uint64, n)
	for i := range a {
		for j := range b {
			prod := modMul(a[i], b[j], p)
			k := i + j
			if k < n {
				want[k] = (want[k] + prod) % p
			} else {
				want[k-n] = (want[k-n] + p - prod) % p
			}
		}
	}
	got := ctx.mulPoly(append([]uint64(nil), a...), append([]uint64(nil), b...))
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("NTT product mismatch at %d: %d != %d", i, got[i], want[i])
		}
	}
}

func TestConvolveExactSigned(t *testing.T) {
	// (1 - X) * (1 + X) = 1 - X^2 mod X^n+1; includes negatives.
	const n = 16
	a := make([]*big.Int, n)
	b := make([]*big.Int, n)
	for i := range a {
		a[i] = big.NewInt(0)
		b[i] = big.NewInt(0)
	}
	a[0].SetInt64(1)
	a[1].SetInt64(-1)
	b[0].SetInt64(1)
	b[1].SetInt64(1)
	got, err := convolve(a, b, n, big.NewInt(1000))
	if err != nil {
		t.Fatal(err)
	}
	want := make([]int64, n)
	want[0], want[2] = 1, -1
	for i := range got {
		if got[i].Int64() != want[i] {
			t.Errorf("coeff %d = %v, want %d", i, got[i], want[i])
		}
	}
}

func TestConvolveNegacyclicWrap(t *testing.T) {
	// X^(n-1) * X = X^n = -1 mod X^n+1.
	const n = 16
	a := make([]*big.Int, n)
	b := make([]*big.Int, n)
	for i := range a {
		a[i] = big.NewInt(0)
		b[i] = big.NewInt(0)
	}
	a[n-1].SetInt64(1)
	b[1].SetInt64(1)
	got, err := convolve(a, b, n, big.NewInt(10))
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Int64() != -1 {
		t.Errorf("constant coeff = %v, want -1", got[0])
	}
	for i := 1; i < n; i++ {
		if got[i].Sign() != 0 {
			t.Errorf("coeff %d = %v, want 0", i, got[i])
		}
	}
}

func TestConvolveLargeCoefficients(t *testing.T) {
	// Coefficients near 2^100: the basis must widen and stay exact.
	const n = 8
	big100 := new(big.Int).Lsh(big.NewInt(1), 100)
	a := make([]*big.Int, n)
	b := make([]*big.Int, n)
	for i := range a {
		a[i] = new(big.Int).Set(big100)
		b[i] = new(big.Int).Neg(big100)
	}
	bound := new(big.Int).Lsh(big.NewInt(1), 210)
	got, err := convolve(a, b, n, bound)
	if err != nil {
		t.Fatal(err)
	}
	// Schoolbook check for coefficient 0: sum_{i+j≡0} ±(2^100)·(−2^100).
	// pairs: (0,0) positive slot, (i, n−i) wrap negative for i=1..n−1.
	// coeff0 = −(2^200) + (n−1)·2^200 = (n−2)·2^200.
	want := new(big.Int).Lsh(big.NewInt(1), 200)
	want.Mul(want, big.NewInt(int64(n-2)))
	if got[0].Cmp(want) != 0 {
		t.Errorf("coeff 0 = %v, want %v", got[0], want)
	}
}

func TestEncryptDecryptRoundTrip(t *testing.T) {
	p := testParams(t)
	sk, err := p.KeyGen()
	if err != nil {
		t.Fatal(err)
	}
	pt := []uint64{1, 2, 3, 65535, 65536, 0, 42}
	ct, err := p.Encrypt(sk, pt)
	if err != nil {
		t.Fatal(err)
	}
	if ct.Degree() != 1 {
		t.Errorf("fresh ciphertext degree = %d, want 1", ct.Degree())
	}
	got, err := p.Decrypt(sk, ct)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range pt {
		if got[i] != want {
			t.Errorf("coeff %d = %d, want %d", i, got[i], want)
		}
	}
	for i := len(pt); i < p.N; i++ {
		if got[i] != 0 {
			t.Errorf("padding coeff %d = %d, want 0", i, got[i])
		}
	}
}

func TestFreshNoiseBudgetPositive(t *testing.T) {
	p := testParams(t)
	sk, _ := p.KeyGen()
	ct, err := p.Encrypt(sk, []uint64{7})
	if err != nil {
		t.Fatal(err)
	}
	budget, err := p.NoiseBudget(sk, ct)
	if err != nil {
		t.Fatal(err)
	}
	if budget < 20 {
		t.Errorf("fresh noise budget = %d bits, want well positive", budget)
	}
}

func TestHomomorphicAdd(t *testing.T) {
	p := testParams(t)
	sk, _ := p.KeyGen()
	a, _ := p.Encrypt(sk, []uint64{10, 20})
	b, _ := p.Encrypt(sk, []uint64{5, 65530})
	sum := p.Add(a, b)
	got, err := p.Decrypt(sk, sum)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 15 {
		t.Errorf("coeff 0 = %d, want 15", got[0])
	}
	if got[1] != (20+65530)%p.T {
		t.Errorf("coeff 1 = %d, want %d", got[1], (20+65530)%p.T)
	}
}

func TestHomomorphicMul(t *testing.T) {
	p := testParams(t)
	sk, _ := p.KeyGen()
	a, _ := p.Encrypt(sk, []uint64{6})
	b, _ := p.Encrypt(sk, []uint64{7})
	prod, err := p.Mul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if prod.Degree() != 2 {
		t.Errorf("product degree = %d, want 2", prod.Degree())
	}
	got, err := p.Decrypt(sk, prod)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 42 {
		t.Errorf("6*7 = %d", got[0])
	}
}

func TestHomomorphicMulPolynomial(t *testing.T) {
	// (2 + 3X)·(5 + X) = 10 + 17X + 3X².
	p := testParams(t)
	sk, _ := p.KeyGen()
	a, _ := p.Encrypt(sk, []uint64{2, 3})
	b, _ := p.Encrypt(sk, []uint64{5, 1})
	prod, err := p.Mul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.Decrypt(sk, prod)
	if err != nil {
		t.Fatal(err)
	}
	want := []uint64{10, 17, 3}
	for i, w := range want {
		if got[i] != w {
			t.Errorf("coeff %d = %d, want %d", i, got[i], w)
		}
	}
}

// TestProcSemantics exercises Procedure Pcr' (§3.1): the selector
// arithmetic v_old·c_r + v_new·c_w must retain the old value for reads
// and install the new one for writes.
func TestProcSemantics(t *testing.T) {
	p := testParams(t)
	sk, _ := p.KeyGen()
	vOld, _ := p.Encrypt(sk, []uint64{111})
	vNew, _ := p.Encrypt(sk, []uint64{222})

	proc := func(cr, cw int) uint64 {
		ctR, _ := p.Encrypt(sk, p.EncodeBit(cr))
		ctW, _ := p.Encrypt(sk, p.EncodeBit(cw))
		left, err := p.Mul(vOld, ctR)
		if err != nil {
			t.Fatal(err)
		}
		right, err := p.Mul(vNew, ctW)
		if err != nil {
			t.Fatal(err)
		}
		res := p.Add(left, right)
		got, err := p.Decrypt(sk, res)
		if err != nil {
			t.Fatal(err)
		}
		return got[0]
	}
	if got := proc(1, 0); got != 111 {
		t.Errorf("read Proc = %d, want old value 111", got)
	}
	if got := proc(0, 1); got != 222 {
		t.Errorf("write Proc = %d, want new value 222", got)
	}
}

// TestNoiseGrowthEventuallyFails reproduces §3.3: applying Proc
// repeatedly to the stored ciphertext exhausts the noise budget within
// a small number of accesses.
func TestNoiseGrowthEventuallyFails(t *testing.T) {
	p, err := NewParameters(64, 165) // 3 primes ≈ 165-bit Q
	if err != nil {
		t.Fatal(err)
	}
	sk, _ := p.KeyGen()
	stored, _ := p.Encrypt(sk, []uint64{99})
	budget0, _ := p.NoiseBudget(sk, stored)

	accesses := 0
	for ; accesses < 40; accesses++ {
		budget, err := p.NoiseBudget(sk, stored)
		if err != nil {
			t.Fatal(err)
		}
		if budget <= 0 {
			break
		}
		ctR, _ := p.Encrypt(sk, p.EncodeBit(1))
		ctW, _ := p.Encrypt(sk, p.EncodeBit(0))
		vNew, _ := p.Encrypt(sk, []uint64{0})
		left, err := p.Mul(stored, ctR)
		if err != nil {
			t.Fatal(err)
		}
		right, err := p.Mul(vNew, ctW)
		if err != nil {
			t.Fatal(err)
		}
		stored = p.Add(left, right)
	}
	if accesses == 0 || accesses >= 40 {
		t.Fatalf("budget (fresh %d bits) never exhausted within 40 accesses", budget0)
	}
	t.Logf("noise budget exhausted after %d accesses (fresh budget %d bits)", accesses, budget0)
	// After exhaustion, decryption must no longer return the value.
	got, err := p.Decrypt(sk, stored)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] == 99 {
		t.Log("note: decryption happened to survive exhaustion margin")
	}
}

func TestEncodeDecodeBytes(t *testing.T) {
	p := testParams(t)
	for _, val := range [][]byte{nil, {1}, {1, 2}, bytes.Repeat([]byte{0xAB}, 100), {0, 0, 0}} {
		coeffs, err := p.EncodeBytes(val)
		if err != nil {
			t.Fatal(err)
		}
		got, err := p.DecodeBytes(coeffs)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, val) {
			t.Errorf("roundtrip %x -> %x", val, got)
		}
	}
}

func TestEncodeBytesTooLarge(t *testing.T) {
	p := testParams(t)
	if _, err := p.EncodeBytes(make([]byte, p.PlaintextCapacity()+10)); err == nil {
		t.Error("EncodeBytes accepted an oversized value")
	}
}

func TestEncodeDecodeThroughEncryption(t *testing.T) {
	p := testParams(t)
	sk, _ := p.KeyGen()
	val := []byte("160-byte-ish payload for the kv store ......")
	coeffs, err := p.EncodeBytes(val)
	if err != nil {
		t.Fatal(err)
	}
	ct, _ := p.Encrypt(sk, coeffs)
	dec, _ := p.Decrypt(sk, ct)
	got, err := p.DecodeBytes(dec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, val) {
		t.Errorf("through-encryption roundtrip failed: %q", got)
	}
}

func TestCiphertextMarshalRoundTrip(t *testing.T) {
	p := testParams(t)
	sk, _ := p.KeyGen()
	ct, _ := p.Encrypt(sk, []uint64{1234})
	data := ct.Marshal(p)
	back, err := UnmarshalCiphertext(p, data)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := p.Decrypt(sk, back)
	if got[0] != 1234 {
		t.Errorf("decrypt after marshal = %d", got[0])
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	p := testParams(t)
	if _, err := UnmarshalCiphertext(p, []byte{0xFF}); err == nil {
		t.Error("accepted garbage ciphertext")
	}
	if _, err := UnmarshalCiphertext(p, nil); err == nil {
		t.Error("accepted empty ciphertext")
	}
}

func TestCiphertextExpansionReported(t *testing.T) {
	p, err := NewParameters(1024, 440)
	if err != nil {
		t.Fatal(err)
	}
	exp := p.CiphertextExpansion()
	if exp < 10 {
		t.Errorf("expansion factor = %.0f, expected large (paper: ~225x)", exp)
	}
	t.Logf("ciphertext expansion factor: %.0fx (paper reports ~225x for SEAL)", exp)
}

func TestParameterValidation(t *testing.T) {
	if _, err := NewParameters(100, 110); err == nil {
		t.Error("accepted non-power-of-two N")
	}
	if _, err := NewParameters(64, 10); err == nil {
		t.Error("accepted tiny qBits")
	}
	if _, err := NewParameters(8, 110); err == nil {
		t.Error("accepted N below minimum")
	}
}

func TestQuickEncryptDecrypt(t *testing.T) {
	p := testParams(t)
	sk, err := p.KeyGen()
	if err != nil {
		t.Fatal(err)
	}
	f := func(vals []uint16) bool {
		if len(vals) > p.N {
			vals = vals[:p.N]
		}
		pt := make([]uint64, len(vals))
		for i, v := range vals {
			pt[i] = uint64(v)
		}
		ct, err := p.Encrypt(sk, pt)
		if err != nil {
			return false
		}
		got, err := p.Decrypt(sk, ct)
		if err != nil {
			return false
		}
		for i, v := range pt {
			if got[i] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestHomomorphicDistributivity: (a+b)·c = a·c + b·c under encryption.
func TestHomomorphicDistributivity(t *testing.T) {
	p := testParams(t)
	sk, _ := p.KeyGen()
	a, _ := p.Encrypt(sk, []uint64{5})
	b, _ := p.Encrypt(sk, []uint64{9})
	c, _ := p.Encrypt(sk, []uint64{7})

	left, err := p.Mul(p.Add(a, b), c)
	if err != nil {
		t.Fatal(err)
	}
	ac, err := p.Mul(a, c)
	if err != nil {
		t.Fatal(err)
	}
	bc, err := p.Mul(b, c)
	if err != nil {
		t.Fatal(err)
	}
	right := p.Add(ac, bc)

	gotL, _ := p.Decrypt(sk, left)
	gotR, _ := p.Decrypt(sk, right)
	if gotL[0] != 98 || gotR[0] != 98 {
		t.Errorf("(5+9)*7: left=%d right=%d, want 98", gotL[0], gotR[0])
	}
}

// TestMulCommutative: a·b and b·a decrypt identically.
func TestMulCommutative(t *testing.T) {
	p := testParams(t)
	sk, _ := p.KeyGen()
	a, _ := p.Encrypt(sk, []uint64{123, 4})
	b, _ := p.Encrypt(sk, []uint64{17})
	ab, err := p.Mul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	ba, err := p.Mul(b, a)
	if err != nil {
		t.Fatal(err)
	}
	gotAB, _ := p.Decrypt(sk, ab)
	gotBA, _ := p.Decrypt(sk, ba)
	for i := 0; i < 4; i++ {
		if gotAB[i] != gotBA[i] {
			t.Errorf("coeff %d: ab=%d ba=%d", i, gotAB[i], gotBA[i])
		}
	}
}

// TestAddIdentityAndZeroMul: ct+Enc(0) and ct·Enc(1) preserve the
// plaintext; ct·Enc(0) annihilates it — the three algebraic facts
// Procedure Pcr leans on (§3.1).
func TestAddIdentityAndZeroMul(t *testing.T) {
	p := testParams(t)
	sk, _ := p.KeyGen()
	ct, _ := p.Encrypt(sk, []uint64{777})
	zero, _ := p.Encrypt(sk, []uint64{0})
	one, _ := p.Encrypt(sk, []uint64{1})

	sum := p.Add(ct, zero)
	got, _ := p.Decrypt(sk, sum)
	if got[0] != 777 {
		t.Errorf("ct+0 = %d", got[0])
	}
	prod1, err := p.Mul(ct, one)
	if err != nil {
		t.Fatal(err)
	}
	got, _ = p.Decrypt(sk, prod1)
	if got[0] != 777 {
		t.Errorf("ct*1 = %d", got[0])
	}
	prod0, err := p.Mul(ct, zero)
	if err != nil {
		t.Fatal(err)
	}
	got, _ = p.Decrypt(sk, prod0)
	if got[0] != 0 {
		t.Errorf("ct*0 = %d", got[0])
	}
}
