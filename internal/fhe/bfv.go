package fhe

import (
	"crypto/rand"
	"errors"
	"fmt"
	"math/big"

	"ortoa/internal/wire"
)

// ErrNoiseOverflow reports a decryption whose noise exceeded the
// correctable bound — the failure mode §3.3 observes after repeated
// Proc applications.
var ErrNoiseOverflow = errors.New("fhe: noise budget exhausted, decryption unreliable")

// Parameters fixes a BFV parameter set. Create with NewParameters.
type Parameters struct {
	// N is the ring degree (power of two). Plaintexts carry up to
	// N coefficients mod T, i.e. 2N bytes with the byte encoding.
	N int
	// T is the plaintext modulus.
	T uint64
	// LogQ is the approximate bit length of the ciphertext modulus.
	Q *big.Int

	delta    *big.Int // floor(Q/T)
	qHalf    *big.Int
	tBig     *big.Int
	noiseEta int // centered-binomial parameter; variance = eta/2
}

// NewParameters builds a parameter set with ring degree n and a
// ciphertext modulus of roughly qBits bits (a product of 55-bit
// primes, mirroring SEAL's default modulus chains). The plaintext
// modulus is 65537, so each coefficient carries two bytes.
func NewParameters(n int, qBits int) (Parameters, error) {
	if n < 16 || n&(n-1) != 0 {
		return Parameters{}, fmt.Errorf("fhe: ring degree %d must be a power of two ≥ 16", n)
	}
	if qBits < 55 || qBits > 1200 {
		return Parameters{}, fmt.Errorf("fhe: qBits %d out of range [55, 1200]", qBits)
	}
	count := (qBits + 54) / 55
	primes, err := findNTTPrimes(55, n, count)
	if err != nil {
		return Parameters{}, err
	}
	q := big.NewInt(1)
	for _, p := range primes {
		q.Mul(q, new(big.Int).SetUint64(p))
	}
	params := Parameters{
		N:        n,
		T:        65537,
		Q:        q,
		noiseEta: 20, // variance 10 → σ ≈ 3.16, SEAL's default σ = 3.2
	}
	params.tBig = new(big.Int).SetUint64(params.T)
	params.delta = new(big.Int).Div(q, params.tBig)
	params.qHalf = new(big.Int).Rsh(q, 1)
	return params, nil
}

// CiphertextExpansion returns the ratio of serialized ciphertext bytes
// to plaintext capacity bytes — the paper reports ~225x for SEAL's
// configuration (§3.3).
func (p Parameters) CiphertextExpansion() float64 {
	ctBytes := 2 * p.N * p.coeffBytes() // fresh degree-1 ciphertext
	ptBytes := p.PlaintextCapacity()
	return float64(ctBytes) / float64(ptBytes)
}

// PlaintextCapacity returns the number of bytes one plaintext holds.
func (p Parameters) PlaintextCapacity() int { return 2 * p.N }

func (p Parameters) coeffBytes() int { return (p.Q.BitLen() + 7) / 8 }

// A SecretKey is a ternary polynomial s; decrypting a degree-d
// ciphertext uses powers s^0..s^d.
type SecretKey struct {
	params Parameters
	s      []*big.Int
}

// A Ciphertext is a vector of polynomials c_0..c_d over R_Q; its
// Degree d grows with each homomorphic multiplication because the
// scheme (like the paper's usage) carries no relinearization keys.
type Ciphertext struct {
	polys [][]*big.Int
}

// Degree returns the ciphertext degree (fresh encryptions are 1).
func (ct *Ciphertext) Degree() int { return len(ct.polys) - 1 }

// KeyGen samples a fresh ternary secret key.
func (p Parameters) KeyGen() (*SecretKey, error) {
	s := make([]*big.Int, p.N)
	buf := make([]byte, p.N)
	if _, err := rand.Read(buf); err != nil {
		return nil, err
	}
	for i := range s {
		switch buf[i] % 3 {
		case 0:
			s[i] = big.NewInt(-1)
		case 1:
			s[i] = big.NewInt(0)
		default:
			s[i] = big.NewInt(1)
		}
	}
	return &SecretKey{params: p, s: s}, nil
}

// Marshal serializes the secret key (one byte per ternary
// coefficient), so a deployment can share it between trusted parties.
func (sk *SecretKey) Marshal() []byte {
	out := make([]byte, len(sk.s))
	for i, c := range sk.s {
		out[i] = byte(c.Int64() + 1) // {-1,0,1} → {0,1,2}
	}
	return out
}

// UnmarshalSecretKey parses a Marshal result for these parameters.
func (p Parameters) UnmarshalSecretKey(data []byte) (*SecretKey, error) {
	if len(data) != p.N {
		return nil, fmt.Errorf("fhe: secret key has %d coefficients, want %d", len(data), p.N)
	}
	s := make([]*big.Int, p.N)
	for i, b := range data {
		if b > 2 {
			return nil, fmt.Errorf("fhe: secret key coefficient %d out of range", b)
		}
		s[i] = big.NewInt(int64(b) - 1)
	}
	return &SecretKey{params: p, s: s}, nil
}

// uniformPoly samples a polynomial with uniform coefficients in [0, Q).
func (p Parameters) uniformPoly() ([]*big.Int, error) {
	out := make([]*big.Int, p.N)
	for i := range out {
		c, err := rand.Int(rand.Reader, p.Q)
		if err != nil {
			return nil, err
		}
		out[i] = c
	}
	return out, nil
}

// noisePoly samples centered-binomial noise with variance eta/2.
func (p Parameters) noisePoly() ([]*big.Int, error) {
	out := make([]*big.Int, p.N)
	// Each coefficient consumes 2*eta bits: eta "plus" and eta "minus".
	bitsPer := 2 * p.noiseEta
	buf := make([]byte, (p.N*bitsPer+7)/8)
	if _, err := rand.Read(buf); err != nil {
		return nil, err
	}
	bitAt := func(i int) int64 {
		return int64(buf[i>>3]>>(uint(i)&7)) & 1
	}
	pos := 0
	for i := range out {
		var v int64
		for j := 0; j < p.noiseEta; j++ {
			v += bitAt(pos) - bitAt(pos+1)
			pos += 2
		}
		out[i] = big.NewInt(v)
	}
	return out, nil
}

// centered lifts a mod-Q coefficient into (-Q/2, Q/2].
func (p Parameters) centered(c *big.Int) *big.Int {
	out := new(big.Int).Mod(c, p.Q)
	if out.Cmp(p.qHalf) > 0 {
		out.Sub(out, p.Q)
	}
	return out
}

func (p Parameters) centeredPoly(a []*big.Int) []*big.Int {
	out := make([]*big.Int, len(a))
	for i, c := range a {
		out[i] = p.centered(c)
	}
	return out
}

// convBound is the worst-case output magnitude for a negacyclic
// product of two centered mod-Q polynomials: N·(Q/2)².
func (p Parameters) convBound() *big.Int {
	b := new(big.Int).Set(p.qHalf)
	b.Mul(b, b)
	b.Mul(b, big.NewInt(int64(p.N)))
	return b
}

// ringMul multiplies two polynomials exactly and reduces mod Q.
func (p Parameters) ringMul(a, b []*big.Int) ([]*big.Int, error) {
	prod, err := convolve(p.centeredPoly(a), p.centeredPoly(b), p.N, p.convBound())
	if err != nil {
		return nil, err
	}
	for i := range prod {
		prod[i].Mod(prod[i], p.Q)
	}
	return prod, nil
}

func (p Parameters) addPoly(a, b []*big.Int) []*big.Int {
	out := make([]*big.Int, p.N)
	for i := range out {
		out[i] = new(big.Int)
		switch {
		case i < len(a) && i < len(b):
			out[i].Add(a[i], b[i])
		case i < len(a):
			out[i].Set(a[i])
		case i < len(b):
			out[i].Set(b[i])
		}
		out[i].Mod(out[i], p.Q)
	}
	return out
}

// Encrypt encrypts a plaintext of up to N coefficients mod T under sk.
// The result is a fresh degree-1 ciphertext: c1 = a uniform,
// c0 = -(a·s) + Δ·m + e.
func (p Parameters) Encrypt(sk *SecretKey, plaintext []uint64) (*Ciphertext, error) {
	if len(plaintext) > p.N {
		return nil, fmt.Errorf("fhe: plaintext has %d coefficients, ring degree is %d", len(plaintext), p.N)
	}
	a, err := p.uniformPoly()
	if err != nil {
		return nil, err
	}
	e, err := p.noisePoly()
	if err != nil {
		return nil, err
	}
	as, err := p.ringMul(a, sk.s)
	if err != nil {
		return nil, err
	}
	c0 := make([]*big.Int, p.N)
	for i := range c0 {
		c0[i] = new(big.Int)
		if i < len(plaintext) {
			if plaintext[i] >= p.T {
				return nil, fmt.Errorf("fhe: plaintext coefficient %d ≥ T=%d", plaintext[i], p.T)
			}
			c0[i].SetUint64(plaintext[i])
			c0[i].Mul(c0[i], p.delta)
		}
		c0[i].Add(c0[i], e[i])
		c0[i].Sub(c0[i], as[i])
		c0[i].Mod(c0[i], p.Q)
	}
	return &Ciphertext{polys: [][]*big.Int{c0, a}}, nil
}

// phase computes v = Σ c_i · s^i mod Q, the decryption phase.
func (p Parameters) phase(sk *SecretKey, ct *Ciphertext) ([]*big.Int, error) {
	acc := make([]*big.Int, p.N)
	for i := range acc {
		acc[i] = new(big.Int).Set(ct.polys[0][i])
	}
	sPow := sk.s
	for d := 1; d < len(ct.polys); d++ {
		term, err := p.ringMul(ct.polys[d], sPow)
		if err != nil {
			return nil, err
		}
		for i := range acc {
			acc[i].Add(acc[i], term[i])
			acc[i].Mod(acc[i], p.Q)
		}
		if d+1 < len(ct.polys) {
			sPow, err = p.ringMul(sPow, sk.s)
			if err != nil {
				return nil, err
			}
		}
	}
	return acc, nil
}

// Decrypt recovers the plaintext: m_i = round(T·v_i/Q) mod T. It does
// not detect noise overflow — use NoiseBudget for that; overflowed
// ciphertexts decrypt to garbage exactly as they would in SEAL.
func (p Parameters) Decrypt(sk *SecretKey, ct *Ciphertext) ([]uint64, error) {
	v, err := p.phase(sk, ct)
	if err != nil {
		return nil, err
	}
	out := make([]uint64, p.N)
	num := new(big.Int)
	den := new(big.Int).Lsh(p.Q, 1) // 2Q
	for i, c := range v {
		// round(T·c/Q) = floor((2·T·c + Q) / 2Q)
		num.Mul(c, p.tBig)
		num.Lsh(num, 1)
		num.Add(num, p.Q)
		num.Div(num, den)
		num.Mod(num, p.tBig)
		out[i] = num.Uint64()
	}
	return out, nil
}

// NoiseBudget returns the remaining noise budget of ct in bits,
// measured exactly with the secret key: the bits of headroom before
// round(T·v/Q) stops matching the embedded plaintext. A non-positive
// budget means Decrypt output is unreliable.
func (p Parameters) NoiseBudget(sk *SecretKey, ct *Ciphertext) (int, error) {
	v, err := p.phase(sk, ct)
	if err != nil {
		return 0, err
	}
	maxNoise := new(big.Int)
	noise := new(big.Int)
	m := new(big.Int)
	den := new(big.Int).Lsh(p.Q, 1)
	for _, c := range v {
		cc := p.centered(c)
		// m = round(T·cc/Q); noise = T·cc − m·Q ∈ (−Q/2, Q/2]
		noise.Mul(cc, p.tBig)
		m.Lsh(noise, 1)
		m.Add(m, p.Q)
		m.Div(m, den)
		m.Mul(m, p.Q)
		noise.Sub(noise, m)
		noise.Abs(noise)
		if noise.Cmp(maxNoise) > 0 {
			maxNoise.Set(noise)
		}
	}
	// Budget: log2(Q/2) − log2(maxNoise).
	if maxNoise.Sign() == 0 {
		return p.Q.BitLen() - 1, nil
	}
	return (p.Q.BitLen() - 1) - maxNoise.BitLen(), nil
}

// Add returns the homomorphic sum; degrees need not match.
func (p Parameters) Add(a, b *Ciphertext) *Ciphertext {
	n := len(a.polys)
	if len(b.polys) > n {
		n = len(b.polys)
	}
	polys := make([][]*big.Int, n)
	for i := range polys {
		switch {
		case i < len(a.polys) && i < len(b.polys):
			polys[i] = p.addPoly(a.polys[i], b.polys[i])
		case i < len(a.polys):
			polys[i] = p.copyPoly(a.polys[i])
		default:
			polys[i] = p.copyPoly(b.polys[i])
		}
	}
	return &Ciphertext{polys: polys}
}

func (p Parameters) copyPoly(a []*big.Int) []*big.Int {
	out := make([]*big.Int, len(a))
	for i, c := range a {
		out[i] = new(big.Int).Set(c)
	}
	return out
}

// Mul returns the homomorphic product via the BFV tensor-and-scale:
// res_k = round(T/Q · Σ_{i+j=k} a_i ⊛ b_j). The result degree is
// deg(a)+deg(b); noise grows by roughly log2(2·N·T) bits per
// multiplication, which is what dooms FHE-ORTOA after a handful of
// accesses (§3.3).
func (p Parameters) Mul(a, b *Ciphertext) (*Ciphertext, error) {
	da, db := a.Degree(), b.Degree()
	// Exact integer tensor: sums of convolutions of centered polys.
	pairsMax := da + 1
	if db+1 < pairsMax {
		pairsMax = db + 1
	}
	bound := p.convBound()
	bound.Mul(bound, big.NewInt(int64(pairsMax)))
	acc := make([][]*big.Int, da+db+1)
	for i := 0; i <= da; i++ {
		ca := p.centeredPoly(a.polys[i])
		for j := 0; j <= db; j++ {
			cb := p.centeredPoly(b.polys[j])
			prod, err := convolve(ca, cb, p.N, bound)
			if err != nil {
				return nil, err
			}
			k := i + j
			if acc[k] == nil {
				acc[k] = prod
			} else {
				for x := range prod {
					acc[k][x].Add(acc[k][x], prod[x])
				}
			}
		}
	}
	// Scale by T/Q with rounding, then reduce mod Q.
	den := new(big.Int).Lsh(p.Q, 1)
	polys := make([][]*big.Int, len(acc))
	for k, poly := range acc {
		out := make([]*big.Int, p.N)
		for i, c := range poly {
			v := new(big.Int).Mul(c, p.tBig)
			v.Lsh(v, 1)
			v.Add(v, p.Q)
			v.Div(v, den) // floor((2Tc+Q)/2Q) = round(Tc/Q)
			v.Mod(v, p.Q)
			out[i] = v
		}
		polys[k] = out
	}
	return &Ciphertext{polys: polys}, nil
}

// Marshal serializes the ciphertext: degree, then fixed-width
// coefficients.
func (ct *Ciphertext) Marshal(p Parameters) []byte {
	cb := p.coeffBytes()
	w := wire.NewWriter(8 + len(ct.polys)*p.N*cb)
	w.Uvarint(uint64(len(ct.polys)))
	buf := make([]byte, cb)
	for _, poly := range ct.polys {
		for _, c := range poly {
			c.FillBytes(buf)
			w.Raw(buf)
		}
	}
	return w.Bytes()
}

// UnmarshalCiphertext parses a Marshal result.
func UnmarshalCiphertext(p Parameters, data []byte) (*Ciphertext, error) {
	r := wire.NewReader(data)
	nPolys := r.Uvarint()
	if r.Err() != nil {
		return nil, r.Err()
	}
	if nPolys < 1 || nPolys > 64 {
		return nil, fmt.Errorf("fhe: ciphertext with %d polynomials", nPolys)
	}
	cb := p.coeffBytes()
	// Sized by the bytes at hand, never by the count alone: a short
	// ciphertext is refused before anything is allocated for it.
	if want := int(nPolys) * p.N * cb; r.Remaining() != want {
		return nil, fmt.Errorf("fhe: %d polynomials need %d coefficient bytes, have %d", nPolys, want, r.Remaining())
	}
	polys := make([][]*big.Int, nPolys)
	for i := range polys {
		poly := make([]*big.Int, p.N)
		for j := range poly {
			raw := r.Raw(cb)
			if r.Err() != nil {
				return nil, r.Err()
			}
			c := new(big.Int).SetBytes(raw)
			if c.Cmp(p.Q) >= 0 {
				return nil, fmt.Errorf("fhe: coefficient ≥ Q")
			}
			poly[j] = c
		}
		polys[i] = poly
	}
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return &Ciphertext{polys: polys}, nil
}
