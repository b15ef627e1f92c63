package bn

import "math/bits"

// ModExp sets z = x^e mod N and returns z. For odd N it uses
// fixed-window Montgomery exponentiation (the BN_mod_exp_mont path the
// paper measures); for even N it falls back to square-and-multiply
// with division-based reduction. e must be non-negative.
func (z *Int) ModExp(x, e, N *Int) *Int {
	profEnter(fnModExp)
	defer profExit()
	if N.IsZero() {
		panic("bn: ModExp modulus is zero")
	}
	if e.Sign() < 0 {
		panic("bn: ModExp negative exponent")
	}
	if N.IsOne() {
		return z.SetUint64(0)
	}
	if e.IsZero() {
		return z.SetUint64(1)
	}
	if N.IsOdd() {
		m, err := NewMont(N)
		if err != nil {
			panic("bn: " + err.Error())
		}
		return m.Exp(z, x, e)
	}
	// Even modulus: plain square-and-multiply.
	var base Int
	base.Mod(x, N)
	result := NewInt(1)
	var t Int
	for i := e.BitLen() - 1; i >= 0; i-- {
		t.Sqr(result)
		result.Mod(&t, N)
		if e.Bit(i) == 1 {
			t.Mul(result, &base)
			result.Mod(&t, N)
		}
	}
	return z.Set(result)
}

// expWindow is the window width for Montgomery exponentiation.
// OpenSSL used 5 for 1024-bit exponents; 4 keeps the precompute table
// small while staying within a few percent of optimal.
const expWindow = 4

// Exp sets z = x^e mod m.N using fixed-window Montgomery
// exponentiation and returns z. x is in ordinary (non-Montgomery)
// form; values outside [0, N) are reduced first. The whole computation
// runs in one workspace slab (the 2^w-entry table, the accumulator and
// the product buffer), and for a given exponent length it runs in
// constant time: every window multiplies — by table[0] = 1 for a zero
// window — and every table read is a masked scan.
func (m *Mont) Exp(z, x, e *Int) *Int {
	if e.IsZero() {
		return z.SetUint64(1)
	}
	var ws montWS
	ops := ws.init(m, 2+1<<expWindow)
	acc := ops[:ws.np]
	ws.expMont(acc, ops[ws.np:], reduced(x, m.N), e)
	ws.fromMont(acc, acc)
	return ws.store(z, acc)
}

// reduced returns x if it is already in [0, N), else x mod N.
func reduced(x, N *Int) *Int {
	if x.neg || x.CmpAbs(N) >= 0 {
		return New().Mod(x, N)
	}
	return x
}

// expMont sets acc = x^e in Montgomery form for x in [0, N) and
// e > 0. ops holds the base and the interleaved window table
// (1 + 2^w operands).
func (ws *montWS) expMont(acc, ops []Word, x, e *Int) {
	base, table := ops[:ws.np], ops[ws.np:]
	ws.one(acc)
	scatter(table, acc, 0)
	ws.toMont(base, x)
	copy(acc, base)
	scatter(table, acc, 1)
	for i := 2; i < 1<<expWindow; i++ {
		ws.mul(acc, acc, base)
		scatter(table, acc, i)
	}
	bitLen := e.BitLen()
	window := func(i, w int) int {
		v := 0
		for k := 0; k < w; k++ {
			v = v<<1 | int(e.Bit(i-k))
		}
		return v
	}
	// The first window takes the leftover top bits; the rest are full.
	top := bitLen % expWindow
	if top == 0 {
		top = expWindow
	}
	gather(acc, table, window(bitLen-1, top))
	for i := bitLen - top - 1; i >= 0; i -= expWindow {
		for k := 0; k < expWindow; k++ {
			ws.sqr(acc, acc)
		}
		gather(ws.tmp, table, window(i, expWindow))
		ws.mul(acc, acc, ws.tmp)
	}
}

// GCD sets z = gcd(|x|, |y|) and returns z.
func (z *Int) GCD(x, y *Int) *Int {
	a := x.Clone()
	b := y.Clone()
	a.neg, b.neg = false, false
	var r Int
	for !b.IsZero() {
		DivMod(nil, &r, a, b)
		a.Set(b)
		b.Set(&r)
	}
	return z.Set(a)
}

// ModInverse sets z = x⁻¹ mod N (the value v in [1, N) with
// x·v ≡ 1 mod N) and returns z, or nil if no inverse exists.
func (z *Int) ModInverse(x, N *Int) *Int {
	if N.Sign() <= 0 || N.IsOne() {
		return nil
	}
	b := reduced(x, N)
	if b.IsZero() {
		return nil
	}
	if N.IsOdd() {
		return z.modInverseOdd(b, N)
	}
	// An even N needs an odd x, and x is then a usable odd modulus:
	// with y = N⁻¹ mod x, N·y = 1 + k·x for some k in [1, N), and
	// x·(N−k) ≡ 1 (mod N).
	if !b.IsOdd() {
		return nil
	}
	if b.IsOne() {
		return z.SetUint64(1)
	}
	y := New().modInverseOdd(New().Mod(N, b), b)
	if y == nil {
		return nil
	}
	k := New().Mul(N, y)
	k.Div(k.SubWord(k, 1), b)
	return z.Sub(N, k)
}

// modInverseOdd is ModInverse for an odd modulus N and x in [0, N):
// the binary extended Euclidean algorithm on four fixed n-limb buffers,
// so an inversion makes one allocation instead of a quotient,
// remainder and coefficient per Euclid step. It keeps
//
//	a·x ≡ u and c·x ≡ v (mod N), with a, c in [0, N),
//
// strips u's and v's factors of two (halving a or c modulo N to
// match) and subtracts the smaller from the larger until u = 0,
// leaving v = gcd(x, N) and c = v·x⁻¹.
func (z *Int) modInverseOdd(x, N *Int) *Int {
	n := len(N.d)
	buf := make([]Word, 4*n)
	u, v, a, c := buf[:n], buf[n:2*n], buf[2*n:3*n], buf[3*n:]
	copy(u, x.d)
	copy(v, N.d)
	a[0] = 1
	n0 := negInverse(N.d[0])
	for !isZeroWords(u) {
		halveMod(u, a, N.d, n0)
		halveMod(v, c, N.d, n0)
		if cmpWords(u, v) >= 0 {
			subWords(u, u, v)
			subMod(a, c, N.d)
		} else {
			subWords(v, v, u)
			subMod(c, a, N.d)
		}
	}
	if v[0] != 1 || !isZeroWords(v[1:]) {
		return nil
	}
	z.d = c
	z.neg = false
	return z.norm()
}

// halveMod divides the non-zero w by its largest power-of-two factor
// 2^k and sets a = a·2^-k mod N (N odd, n0 = -N⁻¹ mod 2^32), up to 31
// bits per step: adding m·N with m = a·n0 mod 2^s clears a's low s
// bits, and (a + m·N) / 2^s < N.
func halveMod(w, a, N []Word, n0 Word) {
	for w[0]&1 == 0 {
		s := uint(bits.TrailingZeros32(w[0]))
		if w[0] == 0 {
			s = 31
		}
		shrWords(w, w, s)
		m := a[0] * n0 & (1<<s - 1)
		top := mulAddWords(a, N, m)
		shrWords(a, a, s)
		a[len(a)-1] |= top << (WordBits - s)
	}
}

// subMod sets a = a - c mod N for a, c in [0, N).
func subMod(a, c, N []Word) {
	if subWords(a, a, c) != 0 {
		addWords(a, a, N)
	}
}

func isZeroWords(x []Word) bool {
	for _, w := range x {
		if w != 0 {
			return false
		}
	}
	return true
}
