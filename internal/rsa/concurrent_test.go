package rsa

import (
	"fmt"
	"math/big"
	"sync"
	"testing"

	"sslperf/internal/bn"
)

func bigOf(z *bn.Int) *big.Int { return new(big.Int).SetBytes(z.Bytes()) }

// TestConcurrentDecryptAndSharedMont runs the two sharing patterns a
// server produces at once: four goroutines decrypting with one
// PrivateKey (concurrent handshakes on one certificate) and four
// exponentiating on one bn.Mont (batch-RSA workers on one key set's
// modulus). Every result is checked against math/big. Under -race
// this gates bn's multiplication knobs, profiler flag and per-call
// Montgomery workspaces.
func TestConcurrentDecryptAndSharedMont(t *testing.T) {
	k512, _ := testKeys(t)
	mont, err := bn.NewMont(k512.N)
	if err != nil {
		t.Fatal(err)
	}
	N, D := bigOf(k512.N), bigOf(k512.D)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rnd := newRandReader(int64(500 + g))
			for i := 0; i < 10; i++ {
				msg := []byte(fmt.Sprintf("goroutine %d message %d", g, i))
				ct, err := k512.EncryptPKCS1(rnd, msg)
				if err != nil {
					errs <- err
					return
				}
				c := bn.New().SetBytes(ct)
				if g < 4 {
					pt, err := k512.DecryptPKCS1(rnd, ct)
					if err != nil || string(pt) != string(msg) {
						errs <- fmt.Errorf("goroutine %d: decrypt = %q, %v; want %q", g, pt, err, msg)
						return
					}
					continue
				}
				want := new(big.Int).Exp(bigOf(c), D, N)
				if got := mont.Exp(bn.New(), c, k512.D); bigOf(got).Cmp(want) != 0 {
					errs <- fmt.Errorf("goroutine %d: shared Mont.Exp mismatch", g)
					return
				}
				e := uint64(3 + 2*i)
				want.Exp(bigOf(c), new(big.Int).SetUint64(e), N)
				if got := mont.ExpUint64(bn.New(), c, e); bigOf(got).Cmp(want) != 0 {
					errs <- fmt.Errorf("goroutine %d: shared Mont.ExpUint64 mismatch", g)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestDecryptAllocs gates the allocation-free Montgomery layer end to
// end: a blinded CRT decryption of a 1024-bit key allocates a small
// constant (the exponentiation slabs and the surrounding bignum
// bookkeeping), not a product per Montgomery multiplication.
func TestDecryptAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	_, k1024 := testKeys(t)
	rnd := newRandReader(510)
	ct, err := k1024.EncryptPKCS1(rnd, []byte("premaster secret"))
	if err != nil {
		t.Fatal(err)
	}
	k1024.DecryptPKCS1(rnd, ct) // set up blinding
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := k1024.DecryptPKCS1(rnd, ct); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 100 {
		t.Fatalf("1024-bit DecryptPKCS1 allocs = %.0f, want <= 100", allocs)
	}
}
