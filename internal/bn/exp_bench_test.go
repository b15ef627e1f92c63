package bn

import (
	"fmt"
	"testing"
)

// BenchmarkMontExp is one CRT half of an RSA decryption: a full-width
// private exponent over a 512- or 1024-bit odd modulus.
func BenchmarkMontExp(b *testing.B) {
	for _, bits := range []int{512, 1024} {
		b.Run(fmt.Sprint(bits), func(b *testing.B) {
			rnd := newRandReader(int64(bits))
			n, _ := New().Rand(rnd, bits, true)
			n.d[0] |= 1
			x, _ := New().Rand(rnd, bits-1, false)
			e, _ := New().Rand(rnd, bits, false)
			m, _ := NewMont(n)
			z := New()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Exp(z, x, e)
			}
		})
	}
}
