package bn

import "math/bits"

// Simultaneous multi-exponentiation and product-tree helpers: the
// substrate for Fiat-style batch RSA (internal/rsabatch), where the
// percolate-up and percolate-down tree phases are built from
// double exponentiations x1^e1·x2^e2 with small exponents, and the
// per-level divisions are batched through Montgomery's inversion
// trick.

// ExpUint64 sets z = x^e mod m.N for a machine-word exponent using
// plain left-to-right square-and-multiply. Unlike Exp it builds no
// window table, so for the small public exponents batch RSA works
// with (e ≤ 2^27 or so) the cost is just the squaring chain — the
// 16-entry table Exp precomputes would dwarf the exponentiation
// itself. The exponent is public, so the chain may skip multiplies.
func (m *Mont) ExpUint64(z, x *Int, e uint64) *Int {
	if e == 0 {
		return z.SetUint64(1)
	}
	var ws montWS
	ops := ws.init(m, 2)
	g, acc := ops[:ws.np], ops[ws.np:]
	ws.toMont(g, reduced(x, m.N))
	copy(acc, g)
	for i := bits.Len64(e) - 2; i >= 0; i-- {
		ws.sqr(acc, acc)
		if e>>uint(i)&1 == 1 {
			ws.mul(acc, acc, g)
		}
	}
	ws.fromMont(acc, acc)
	return ws.store(z, acc)
}

// Exp2Uint64 is Exp2 for machine-word exponents: z = x1^e1 · x2^e2
// mod m.N over one shared squaring chain.
func (m *Mont) Exp2Uint64(z, x1 *Int, e1 uint64, x2 *Int, e2 uint64) *Int {
	n := max(bits.Len64(e1), bits.Len64(e2))
	return m.exp2(z, x1, x2, n, func(i int) int {
		return int(e1>>uint(i)&1 | e2>>uint(i)&1<<1)
	})
}

// Exp2 sets z = x1^e1 · x2^e2 mod m.N using Shamir's simultaneous
// square-and-multiply trick: one shared squaring chain with a 2-bit
// window selecting x1, x2, or x1·x2, so the combined cost is one
// exponentiation of max(len(e1), len(e2)) bits plus one precomputed
// product — instead of two full chains and a multiply. x1 and x2 are
// in ordinary (non-Montgomery) form; e1 and e2 must be non-negative.
func (m *Mont) Exp2(z, x1, e1, x2, e2 *Int) *Int {
	if e1.Sign() < 0 || e2.Sign() < 0 {
		panic("bn: Exp2 negative exponent")
	}
	n := max(e1.BitLen(), e2.BitLen())
	return m.exp2(z, x1, x2, n, func(i int) int {
		return int(e1.Bit(i) | e2.Bit(i)<<1)
	})
}

// exp2 runs the shared chain of Exp2 and Exp2Uint64 over n exponent
// bits; bit(i) returns the 2-bit window (e1's bit | e2's bit << 1).
func (m *Mont) exp2(z, x1, x2 *Int, n int, bit func(i int) int) *Int {
	if n == 0 {
		return z.SetUint64(1)
	}
	var ws montWS
	ops := ws.init(m, 4)
	np := ws.np
	acc, table := ops[:np], ops[np:]
	g1, g2, g12 := table[:np], table[np:2*np], table[2*np:]
	ws.toMont(g1, reduced(x1, m.N))
	ws.toMont(g2, reduced(x2, m.N))
	ws.mul(g12, g1, g2)
	// The chain starts at the first set bit instead of squaring 1.
	started := false
	for i := n - 1; i >= 0; i-- {
		if started {
			ws.sqr(acc, acc)
		}
		w := bit(i)
		if w == 0 {
			continue
		}
		g := table[(w-1)*np : w*np]
		if started {
			ws.mul(acc, acc, g)
		} else {
			copy(acc, g)
			started = true
		}
	}
	ws.fromMont(acc, acc)
	return ws.store(z, acc)
}

// ModExp2 sets z = x1^e1 · x2^e2 mod N and returns z. For odd N it
// uses the shared-chain Montgomery path (Exp2); for even N it falls
// back to two ModExps and a modular multiply.
func (z *Int) ModExp2(x1, e1, x2, e2, N *Int) *Int {
	if N.IsZero() {
		panic("bn: ModExp2 modulus is zero")
	}
	if N.IsOne() {
		return z.SetUint64(0)
	}
	if N.IsOdd() {
		m, err := NewMont(N)
		if err != nil {
			panic("bn: " + err.Error())
		}
		return m.Exp2(z, x1, e1, x2, e2)
	}
	a := New().ModExp(x1, e1, N)
	b := New().ModExp(x2, e2, N)
	z.Mul(a, b)
	return z.Mod(z, N)
}

// ProductTree returns the binary product tree of xs: level 0 is a
// copy of xs, each higher level holds the pairwise products of the
// one below (a trailing odd element is promoted unchanged), and the
// top level is the single product of all inputs. xs must be
// non-empty. The batch-RSA percolate phases and batched inversion
// both walk this shape.
func ProductTree(xs []*Int) [][]*Int {
	if len(xs) == 0 {
		panic("bn: ProductTree of empty slice")
	}
	level := make([]*Int, len(xs))
	for i, x := range xs {
		level[i] = x.Clone()
	}
	tree := [][]*Int{level}
	for len(level) > 1 {
		next := make([]*Int, 0, (len(level)+1)/2)
		for i := 0; i+1 < len(level); i += 2 {
			next = append(next, New().Mul(level[i], level[i+1]))
		}
		if len(level)%2 == 1 {
			next = append(next, level[len(level)-1].Clone())
		}
		tree = append(tree, next)
		level = next
	}
	return tree
}

// BatchModInverse sets zs[i] = xs[i]⁻¹ mod N for every i using
// Montgomery's trick: one modular inversion plus 3(n−1) modular
// multiplications, instead of n inversions. It reports whether all
// inputs were invertible; on false the contents of zs are
// unspecified. zs and xs must have equal length (zs[i] may alias
// xs[i]).
func BatchModInverse(zs, xs []*Int, N *Int) bool {
	if len(zs) != len(xs) {
		panic("bn: BatchModInverse length mismatch")
	}
	n := len(xs)
	if n == 0 {
		return true
	}
	// Prefix products p[i] = x0·…·xi mod N.
	prefix := make([]*Int, n)
	prefix[0] = New().Mod(xs[0], N)
	for i := 1; i < n; i++ {
		prefix[i] = New().Mul(prefix[i-1], xs[i])
		prefix[i].Mod(prefix[i], N)
	}
	inv := New().ModInverse(prefix[n-1], N)
	if inv == nil {
		return false
	}
	// Walk backwards: zs[i] = inv · p[i-1]; inv ← inv · xs[i].
	for i := n - 1; i > 0; i-- {
		x := xs[i].Clone() // survive zs[i] aliasing xs[i]
		zs[i] = New().Mul(inv, prefix[i-1])
		zs[i].Mod(zs[i], N)
		inv.Mul(inv, x)
		inv.Mod(inv, N)
	}
	zs[0] = inv
	return true
}
