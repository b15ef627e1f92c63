package bn

// Mul sets z = x * y and returns z (BN_mul). Large operands use the
// algorithm selected by SetMulMode — Karatsuba by default, like the
// OpenSSL build the paper measured — with the schoolbook mul-add loop
// as the base case. The product and any Karatsuba scratch share one
// allocation.
func (z *Int) Mul(x, y *Int) *Int {
	profEnter(fnMul)
	if x.IsZero() || y.IsZero() {
		z.d = z.d[:0]
		z.neg = false
		profExit()
		return z
	}
	neg := x.neg != y.neg
	nx, ny := len(x.d), len(y.d)
	c := loadMulConfig()
	var prod []Word
	if on, n := c.engages(max(nx, ny)); on && min(nx, ny) > c.thr {
		// Pad both operands to a common even length.
		buf := make([]Word, 4*n+c.scratch(n))
		xp, yp, p := buf[:n], buf[n:2*n], buf[2*n:4*n]
		copy(xp, x.d)
		copy(yp, y.d)
		c.kmul(p, xp, yp, buf[4*n:])
		prod = p[:nx+ny]
	} else {
		prod = make([]Word, nx+ny)
		schoolbookMul(prod, x.d, y.d)
	}
	z.d = prod
	z.neg = neg
	z.norm()
	profExit()
	return z
}

// Sqr sets z = x * x and returns z. (BN_sqr.) It exploits the symmetry
// of squaring: cross products are computed once and doubled.
func (z *Int) Sqr(x *Int) *Int {
	n := len(x.d)
	if n == 0 {
		z.d = z.d[:0]
		z.neg = false
		return z
	}
	out := make([]Word, 2*n)
	sqrWords(out, x.d)
	z.d = out
	z.neg = false
	return z.norm()
}

// sqrWords sets z (2·len(x) limbs) = x², the BN_sqr of OpenSSL's
// BN_mod_mul_montgomery when a == b: the cross products x[i]·x[j],
// i < j, through the mul-add kernel, then the doubling and the
// diagonal squares x[i]², which are this function's own time.
func sqrWords(z, x []Word) {
	profEnter(fnSqr)
	n := len(x)
	z = z[:2*n]
	clear(z)
	for i := 0; i < n-1; i++ {
		z[i+n] = mulAddWords(z[2*i+1:i+n], x[i+1:], x[i])
	}
	// One pass doubles the cross products (shifting each limb left,
	// with the bit from the limb below) and adds the diagonal square.
	var dbl Word
	var c uint64
	for i, w := range x {
		d0, d1 := z[2*i], z[2*i+1]
		t0, t1 := d0<<1|dbl, d1<<1|d0>>(WordBits-1)
		dbl = d1 >> (WordBits - 1)
		sq := uint64(w) * uint64(w)
		lo := uint64(t0) + sq&0xffffffff + c
		hi := uint64(t1) + sq>>WordBits + lo>>WordBits
		z[2*i], z[2*i+1] = Word(lo), Word(hi)
		c = hi >> WordBits
	}
	profExit()
}

// MulWord sets z = x * w and returns z.
func (z *Int) MulWord(x *Int, w Word) *Int {
	if x.IsZero() || w == 0 {
		z.d = z.d[:0]
		z.neg = false
		return z
	}
	out := make([]Word, len(x.d)+1)
	out[len(x.d)] = mulWords(out[:len(x.d)], x.d, w)
	neg := x.neg
	z.d = out
	z.neg = neg
	return z.norm()
}
