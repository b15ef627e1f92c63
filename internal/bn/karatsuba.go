package bn

import "sync/atomic"

// Karatsuba multiplication, matching the algorithm OpenSSL 0.9.7 used
// (bn_mul_recursive): the subtractive variant whose difference terms
// are what put bn_sub_words at 22.6% of RSA decryption in the paper's
// Table 8. Schoolbook multiplication remains available (and is the
// base case); SetMulMode switches between them so the Table 8
// ablation can show how the choice moves time between the word
// kernels. Like bn_mul_recursive's t argument, every temporary lives
// in caller-owned scratch: the recursion allocates nothing.

// MulMode selects the multiplication algorithm for large operands.
type MulMode int

// Multiplication modes.
const (
	// MulSchoolbook always uses the O(n²) mul-add loop.
	MulSchoolbook MulMode = iota
	// MulKaratsuba recurses with the subtractive Karatsuba identity
	// above the threshold, like the OpenSSL 0.9.7 build the paper
	// measured. The default; the Table 8 ablation contrasts the two
	// modes' function profiles.
	MulKaratsuba
)

// karatsubaThreshold is the limb count at or below which
// multiplication stays schoolbook. The default 16 is tuned for this
// library on 64-bit hosts; OpenSSL 0.9.7's 32-bit build effectively
// recursed down to its 8-word comba kernel, which is what the
// Table 8 ablation emulates by lowering the threshold to 8. Note
// RSA-1024 with CRT works on 16-limb halves, so at the default
// threshold its Montgomery products stay schoolbook — Karatsuba
// engages from RSA-2048, or at the lowered threshold.
//
// Both knobs are atomics so concurrent arithmetic may run while an
// experiment flips them; each multiplication or exponentiation reads
// them once (see mulConfig) and sizes its scratch from that snapshot.
var (
	karatsubaThreshold atomic.Int32
	mulMode            atomic.Int32
)

func init() {
	karatsubaThreshold.Store(16)
	mulMode.Store(int32(MulKaratsuba))
}

// SetKaratsubaThreshold sets the recursion cutoff in limbs and
// returns the previous value. Calls already in flight keep the
// cutoff they started with.
func SetKaratsubaThreshold(limbs int) int {
	if limbs < 2 {
		return int(karatsubaThreshold.Load())
	}
	return int(karatsubaThreshold.Swap(int32(limbs)))
}

// SetMulMode selects the multiplication algorithm and returns the
// previous mode. Calls already in flight keep the mode they started
// with.
func SetMulMode(m MulMode) MulMode {
	return MulMode(mulMode.Swap(int32(m)))
}

// CurrentMulMode reports the active multiplication mode.
func CurrentMulMode() MulMode { return MulMode(mulMode.Load()) }

// mulConfig is one snapshot of the multiplication knobs.
type mulConfig struct {
	karatsuba bool
	thr       int
}

func loadMulConfig() mulConfig {
	return mulConfig{
		karatsuba: MulMode(mulMode.Load()) == MulKaratsuba,
		thr:       int(karatsubaThreshold.Load()),
	}
}

// engages reports whether an n×n-limb product recurses, and the limb
// width its operands must be padded to (Karatsuba splits even lengths
// only).
func (c mulConfig) engages(n int) (bool, int) {
	if !c.karatsuba || n <= c.thr {
		return false, n
	}
	return true, n + n%2
}

// scratch returns the scratch limbs kmul and ksqr need for n-limb
// operands.
func (c mulConfig) scratch(n int) int {
	if n <= c.thr || n%2 == 1 {
		return 0
	}
	m := n / 2
	return 6*m + 1 + c.scratch(m)
}

// schoolbookMul sets z (len(x)+len(y) limbs) = x·y with the O(n²)
// mul-add loop. Every limb of y takes one mulAddWords pass, zero or
// not, so the work does not depend on the operand values.
func schoolbookMul(z, x, y []Word) {
	clear(z[:len(x)])
	for j, yw := range y {
		z[j+len(x)] = mulAddWords(z[j:j+len(x)], x, yw)
	}
}

// kmul sets z (2n limbs) = x·y for equal-length x, y (n limbs) with
// scratch t of at least c.scratch(n) limbs, recursing while Karatsuba
// is on and n is even and above the cutoff. The subtractive Karatsuba
// identity:
//
//	x = x1·B^m + x0,  y = y1·B^m + y0,  m = n/2
//	z0 = x0·y0, z2 = x1·y1
//	middle = z0 + z2 + (x0−x1)(y1−y0)
//	x·y = z2·B^2m + middle·B^m + z0
func (c mulConfig) kmul(z, x, y, t []Word) {
	n := len(x)
	if !c.karatsuba || n <= c.thr || n%2 == 1 {
		schoolbookMul(z, x, y)
		return
	}
	m := n / 2
	x0, x1 := x[:m], x[m:]
	y0, y1 := y[:m], y[m:]
	z0, z2 := z[:2*m], z[2*m:2*n]
	c.kmul(z0, x0, y0, t)
	c.kmul(z2, x1, y1, t)

	d1, d2, z1, mid, rest := t[:m], t[m:2*m], t[2*m:4*m], t[4*m:6*m+1], t[6*m+1:]
	neg1 := absDiff(d1, x0, x1) // x0 - x1
	neg2 := absDiff(d2, y1, y0) // y1 - y0
	c.kmul(z1, d1, d2, rest)

	// middle (2m+1 limbs) = z0 + z2 ± z1.
	copy(mid, z0)
	mid[2*m] = 0
	addTo(mid, z2)
	if neg1 != neg2 {
		subFrom(mid, z1)
	} else {
		addTo(mid, z1)
	}
	// z already holds z2·B^2m + z0; add middle·B^m.
	addTo(z[m:2*n], mid)
}

// ksqr is kmul for x·x (bn_sqr_recursive): the difference term
// (x0−x1)² is never negative, so middle = z0 + z2 − (x0−x1)².
// Below the threshold it bottoms out in the dedicated squaring.
func (c mulConfig) ksqr(z, x, t []Word) {
	n := len(x)
	if !c.karatsuba || n <= c.thr || n%2 == 1 {
		sqrWords(z, x)
		return
	}
	m := n / 2
	x0, x1 := x[:m], x[m:]
	z0, z2 := z[:2*m], z[2*m:2*n]
	c.ksqr(z0, x0, t)
	c.ksqr(z2, x1, t)

	d, z1, mid, rest := t[:m], t[m:3*m], t[3*m:5*m+1], t[5*m+1:]
	absDiff(d, x0, x1)
	c.ksqr(z1, d, rest)

	copy(mid, z0)
	mid[2*m] = 0
	addTo(mid, z2)
	subFrom(mid, z1)
	addTo(z[m:2*n], mid)
}

// addTo adds x into z in place (len(x) <= len(z)), propagating the
// carry through z. The final carry must be zero by construction of
// the callers.
func addTo(z, x []Word) {
	carry := addWords(z[:len(x)], z[:len(x)], x)
	for i := len(x); carry != 0 && i < len(z); i++ {
		s := uint64(z[i]) + uint64(carry)
		z[i] = Word(s)
		carry = Word(s >> WordBits)
	}
}

// subFrom subtracts x from z in place (len(x) <= len(z), z >= x).
func subFrom(z, x []Word) {
	borrow := subWords(z[:len(x)], z[:len(x)], x)
	for i := len(x); borrow != 0 && i < len(z); i++ {
		t := uint64(z[i]) - uint64(borrow)
		z[i] = Word(t)
		borrow = Word((t >> WordBits) & 1)
	}
}

// absDiff sets out = |a−b| (a, b and out of equal length) and reports
// whether a < b. The comparison plus subtraction is the bn_sub_words
// traffic Karatsuba is known for.
func absDiff(out, a, b []Word) bool {
	if cmpWords(a, b) >= 0 {
		subWords(out, a, b)
		return false
	}
	subWords(out, b, a)
	return true
}
