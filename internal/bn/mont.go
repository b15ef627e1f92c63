package bn

import "errors"

// Mont holds the precomputed constants for Montgomery arithmetic
// modulo an odd modulus N: R = 2^(32·n) where n is the limb count of
// N, n0 = -N⁻¹ mod 2^32, and RR = R² mod N for conversion into the
// Montgomery domain. It is the analogue of OpenSSL's BN_MONT_CTX.
//
// A Mont is read-only after NewMont, so one context may serve any
// number of goroutines: every operation keeps its temporaries in a
// workspace owned by the call (montWS), never in the Mont.
type Mont struct {
	N  *Int // modulus (odd, > 1)
	n  int  // limbs in N
	n0 Word // -N^-1 mod 2^32
	RR *Int // R^2 mod N
}

// NewMont prepares a Montgomery context for the odd modulus N > 1.
func NewMont(N *Int) (*Mont, error) {
	if N.Sign() <= 0 || !N.IsOdd() || N.IsOne() {
		return nil, errors.New("bn: Montgomery modulus must be odd and > 1")
	}
	m := &Mont{N: N.Clone(), n: len(N.d)}
	m.n0 = negInverse(N.d[0])
	// RR = 2^(2*32*n) mod N.
	rr := New().SetUint64(1)
	rr.Lsh(rr, uint(2*WordBits*m.n))
	m.RR = New().Mod(rr, m.N)
	return m, nil
}

// negInverse returns -w⁻¹ mod 2^32 for odd w by Newton–Hensel
// lifting: x_{k+1} = x_k·(2 - w·x_k) doubles the correct low bits,
// from the seed 3·w ⊕ 2, which is already correct mod 2^5.
func negInverse(w Word) Word {
	inv := (3 * w) ^ 2
	for i := 0; i < 3; i++ { // 5 -> 10 -> 20 -> 40 (>32) correct bits
		inv *= 2 - w*inv
	}
	return -inv
}

// montWS is the workspace of one Montgomery computation: a single
// slab holding the 2·np-limb product/reduction buffer, a spare
// operand, the Karatsuba scratch and whatever operands the caller
// asks for (an exponentiation's window table and accumulator). It
// lives on the caller's stack and belongs to that call alone, which is
// what lets one Mont serve concurrent handshakes and batch workers.
//
// Operands are np-limb slices holding values in [0, N): np is the
// modulus width n, plus one zero limb when Karatsuba must split an
// odd width. The multiplication knobs are read once, here, so a
// concurrent SetMulMode cannot resize the scratch mid-computation.
type montWS struct {
	m    *Mont
	np   int
	c    mulConfig
	prod []Word // 2·np limbs
	tmp  []Word // np limbs
	kt   []Word // Karatsuba scratch
}

// init sizes the workspace for m and allocates its slab, returning
// the part that holds the caller's `operands` further np-limb slices.
func (ws *montWS) init(m *Mont, operands int) []Word {
	ws.m = m
	ws.c = loadMulConfig()
	var on bool
	on, ws.np = ws.c.engages(m.n)
	np, kn := ws.np, 0
	if on {
		kn = ws.c.scratch(np)
	}
	slab := make([]Word, (3+operands)*np+kn)
	ws.prod, ws.tmp = slab[:2*np], slab[2*np:3*np]
	ws.kt = slab[3*np : 3*np+kn]
	return slab[3*np+kn:]
}

// load copies x (in [0, N)) into the np-limb operand dst.
func (ws *montWS) load(dst []Word, x *Int) {
	clear(dst[copy(dst, x.d):])
}

// store sets z to the n-limb value x, reusing z's storage.
func (ws *montWS) store(z *Int, x []Word) *Int {
	x = x[:ws.m.n]
	if cap(z.d) < len(x) {
		z.d = make([]Word, len(x))
	}
	z.d = z.d[:len(x)]
	copy(z.d, x)
	z.neg = false
	return z.norm()
}

// mul sets out = x·y·R⁻¹ mod N (BN_mod_mul_montgomery). out may alias
// x or y: the product is formed in the workspace first.
func (ws *montWS) mul(out, x, y []Word) {
	profEnter(fnMul)
	ws.c.kmul(ws.prod, x, y, ws.kt)
	profExit()
	ws.redc(out)
}

// sqr sets out = x²·R⁻¹ mod N through the dedicated squaring, as
// BN_mod_mul_montgomery does when a == b.
func (ws *montWS) sqr(out, x []Word) {
	ws.c.ksqr(ws.prod, x, ws.kt)
	ws.redc(out)
}

// toMont sets out = x·R mod N for x in [0, N).
func (ws *montWS) toMont(out []Word, x *Int) {
	ws.load(out, x)
	ws.load(ws.tmp, ws.m.RR)
	ws.mul(out, out, ws.tmp)
}

// fromMont sets out = x·R⁻¹ mod N.
func (ws *montWS) fromMont(out, x []Word) {
	clear(ws.prod[copy(ws.prod, x):])
	ws.redc(out)
}

// one sets out = R mod N, the Montgomery form of 1 (= RR·R⁻¹).
func (ws *montWS) one(out []Word) {
	ws.load(out, ws.m.RR)
	ws.fromMont(out, out)
}

// redc performs Montgomery reduction of the product buffer
// (t < R·N) and writes the result into out: out = t·R⁻¹ mod N. This
// is the core of BN_from_montgomery (Table 8); its inner loop is
// mulAddWords, so in a function profile most of its time is attributed
// to bn_mul_add_words, matching the paper's exclusive-time profile.
//
// The reduction runs in constant time: each row's carry folds into the
// next row's top limb through one running carry bit instead of a
// data-dependent propagation loop, and the final conditional
// subtraction of N always runs, with a mask selecting its result.
func (ws *montWS) redc(out []Word) {
	profEnter(fnFromMontgomery)
	N, n, n0 := ws.m.N.d, ws.m.n, ws.m.n0
	t := ws.prod
	var c uint64 // carry into t[i+n]
	for i := 0; i < n; i++ {
		cy := mulAddWords(t[i:i+n], N, t[i]*n0)
		s := uint64(t[i+n]) + uint64(cy) + c
		t[i+n] = Word(s)
		c = s >> WordBits
	}
	// The result is c·R + t[n:2n] < 2N; subtract N unless that
	// borrows out of a zero top carry.
	top := t[n : 2*n]
	clear(out[n:])
	out = out[:n]
	borrow := subWords(out, top, N)
	keep := (Word(c) ^ 1) & borrow // 1: top < N, keep it
	mask := -keep
	for i, w := range top {
		out[i] = w&mask | out[i]&^mask
	}
	profExit()
}

// The exponentiation window table is interleaved limb by limb, the
// layout of OpenSSL's BN_mod_exp_mont_consttime: limb i of entry j
// sits at table[i·16 + j], so a lookup reads every entry's limb i
// from one 16-word row.
//
// gather is unrolled for 16 entries; these fail to compile otherwise.
const (
	_ uint = 1<<expWindow - 16
	_ uint = 16 - 1<<expWindow
)

// scatter stores x as entry idx of an interleaved table.
func scatter(table, x []Word, idx int) {
	for i, w := range x {
		table[i<<expWindow+idx] = w
	}
}

// gather sets out to entry idx of an interleaved table with a masked
// scan over every entry of each row, so which table words are read
// does not depend on the secret window value.
func gather(out, table []Word, idx int) {
	var m [16]Word
	for j := range m {
		// All ones when j == idx: j^idx is zero only then, and
		// (0 - 1) >> 63 is the one case that sets the bit.
		m[j] = -Word((uint64(uint32(j^idx)) - 1) >> 63)
	}
	for i := range out {
		r := (*[16]Word)(table[i<<expWindow:])
		out[i] = r[0]&m[0] | r[1]&m[1] | r[2]&m[2] | r[3]&m[3] |
			r[4]&m[4] | r[5]&m[5] | r[6]&m[6] | r[7]&m[7] |
			r[8]&m[8] | r[9]&m[9] | r[10]&m[10] | r[11]&m[11] |
			r[12]&m[12] | r[13]&m[13] | r[14]&m[14] | r[15]&m[15]
	}
}

// MulMont sets z = x·y·R⁻¹ mod N for x, y already in Montgomery form
// and returns z, reusing z's storage. x and y must be in [0, N). As in
// OpenSSL's BN_mod_mul_montgomery, the product uses the configured
// BN_mul path (Karatsuba or schoolbook) followed by the reduction.
func (m *Mont) MulMont(z, x, y *Int) *Int {
	var ws montWS
	ops := ws.init(m, 2)
	a, b := ops[:ws.np], ops[ws.np:]
	ws.load(a, x)
	ws.load(b, y)
	ws.mul(a, a, b)
	return ws.store(z, a)
}

// SqrMont sets z = x²·R⁻¹ mod N for x in Montgomery form and returns
// z. The square is the dedicated BN_sqr: cross products through the
// mul-add kernel, doubled, plus the diagonal.
func (m *Mont) SqrMont(z, x *Int) *Int {
	var ws montWS
	a := ws.init(m, 1)
	ws.load(a, x)
	ws.sqr(a, a)
	return ws.store(z, a)
}

// ToMont converts x (in [0, N)) into Montgomery form: z = x·R mod N.
func (m *Mont) ToMont(z, x *Int) *Int {
	var ws montWS
	a := ws.init(m, 1)
	ws.toMont(a, x)
	return ws.store(z, a)
}

// FromMont converts x out of Montgomery form: z = x·R⁻¹ mod N.
func (m *Mont) FromMont(z, x *Int) *Int {
	var ws montWS
	a := ws.init(m, 1)
	ws.load(a, x)
	ws.fromMont(a, a)
	return ws.store(z, a)
}

// One returns 1 in Montgomery form (R mod N).
func (m *Mont) One() *Int {
	var ws montWS
	a := ws.init(m, 1)
	ws.one(a)
	return ws.store(New(), a)
}
