package bn

import (
	"errors"
	"io"
)

// smallPrimes is used for trial division before Miller–Rabin.
var smallPrimes = sieve(2000)

func sieve(limit int) []Word {
	composite := make([]bool, limit)
	var primes []Word
	for i := 2; i < limit; i++ {
		if composite[i] {
			continue
		}
		primes = append(primes, Word(i))
		for j := i * i; j < limit; j += i {
			composite[j] = true
		}
	}
	return primes
}

// modWord returns |z| mod d for a single-limb d.
func (z *Int) modWord(d Word) Word {
	var rem uint64
	for i := len(z.d) - 1; i >= 0; i-- {
		rem = (rem<<32 | uint64(z.d[i])) % uint64(d)
	}
	return Word(rem)
}

// ProbablyPrime reports whether z is prime with error probability at
// most 4^-rounds, using trial division followed by Miller–Rabin with
// random bases from rnd.
func (z *Int) ProbablyPrime(rnd io.Reader, rounds int) (bool, error) {
	if z.Sign() <= 0 {
		return false, nil
	}
	if v, ok := z.Uint64(); ok && v < 4 {
		return v == 2 || v == 3, nil
	}
	if !z.IsOdd() {
		return false, nil
	}
	for _, p := range smallPrimes {
		if z.modWord(p) == 0 {
			// Divisible by a small prime; prime only if equal to it.
			v, ok := z.Uint64()
			return ok && v == uint64(p), nil
		}
	}
	// Write z-1 = d * 2^s with d odd.
	nm1 := New().SubWord(z, 1)
	s := 0
	d := nm1.Clone()
	for !d.IsOdd() {
		d.Rsh(d, 1)
		s++
	}
	m, err := NewMont(z)
	if err != nil {
		return false, err
	}
	// Every round runs in Montgomery form in one workspace: the
	// squarings of a^d compare against the Montgomery forms of 1 and
	// z-1 (the map x -> x·R is a bijection mod z).
	var ws montWS
	ops := ws.init(m, 4+1<<expWindow)
	np := ws.np
	acc, one, minusOne := ops[:np], ops[np:2*np], ops[2*np:3*np]
	ws.one(one)
	ws.toMont(minusOne, nm1)
	var a Int
	for i := 0; i < rounds; i++ {
		// Random base in [2, z-2].
		if _, err := a.RandRange(rnd, nm1); err != nil {
			return false, err
		}
		if a.IsOne() {
			continue
		}
		ws.expMont(acc, ops[3*np:], &a, d)
		if equalWords(acc, one) || equalWords(acc, minusOne) {
			continue
		}
		witness := true
		for r := 1; r < s; r++ {
			ws.sqr(acc, acc)
			if equalWords(acc, minusOne) {
				witness = false
				break
			}
			if equalWords(acc, one) {
				return false, nil
			}
		}
		if witness {
			return false, nil
		}
	}
	return true, nil
}

// equalWords reports whether two equal-length limb slices match.
func equalWords(x, y []Word) bool {
	var diff Word
	for i, w := range x {
		diff |= w ^ y[i]
	}
	return diff == 0
}

// GeneratePrime returns a random prime with exactly bits bits and the
// top two bits set, suitable for RSA key generation.
func GeneratePrime(rnd io.Reader, bitLen int) (*Int, error) {
	if bitLen < 16 {
		return nil, errors.New("bn: prime bit length too small")
	}
	p := New()
	for attempts := 0; attempts < 100*bitLen; attempts++ {
		if _, err := p.Rand(rnd, bitLen, true); err != nil {
			return nil, err
		}
		p.d[0] |= 1 // force odd
		ok, err := p.ProbablyPrime(rnd, 20)
		if err != nil {
			return nil, err
		}
		if ok {
			return p, nil
		}
	}
	return nil, errors.New("bn: prime generation did not converge")
}
