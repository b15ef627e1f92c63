package bn

import (
	"fmt"
	"math/big"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// mulConfigs are the multiplication settings every Montgomery result
// must be independent of: schoolbook, the default Karatsuba cutoff,
// and the OpenSSL-like cutoff of the Table 8 ablation.
var mulConfigs = []struct {
	mode MulMode
	thr  int
}{
	{MulSchoolbook, 16},
	{MulKaratsuba, 16},
	{MulKaratsuba, 8},
}

// withConfig runs fn under one multiplication setting.
func withConfig(mode MulMode, thr int, fn func()) {
	prevMode := SetMulMode(mode)
	prevThr := SetKaratsubaThreshold(thr)
	defer func() {
		SetMulMode(prevMode)
		SetKaratsubaThreshold(prevThr)
	}()
	fn()
}

// testModuli returns odd moduli of the given limb count that between
// them reach every outcome of the reduction's final step: a random one,
// one of all-ones limbs (the pre-subtraction result often carries out
// of R), one just above R/2 (it needs the subtraction without a carry
// about one time in eight) and, above one limb, one with a top limb of
// 1 (it practically never needs the subtraction).
func testModuli(r *rand.Rand, limbs int) []*Int {
	var out []*Int
	for kind := 0; kind < 4; kind++ {
		d := make([]Word, limbs)
		for i := range d {
			d[i] = Word(r.Uint32())
		}
		switch kind {
		case 0:
			d[limbs-1] |= 1 // keep the full limb count
		case 1:
			for i := range d {
				d[i] = ^Word(0)
			}
		case 2:
			d[limbs-1] = 1 << 31
		case 3:
			if limbs == 1 {
				continue
			}
			d[limbs-1] = 1
		}
		d[0] |= 1
		if n := (&Int{d: d}).norm(); !n.IsOne() {
			out = append(out, n)
		}
	}
	return out
}

// windowExponents returns, for every bit length up to three windows
// and one bit, the exponents 2^(k-1) (all-zero windows after the first
// bit) and 2^k - 1 (all-ones windows).
func windowExponents() []*Int {
	var out []*Int
	for bits := 1; bits <= 3*expWindow+1; bits++ {
		e := New().Lsh(NewInt(1), uint(bits-1))
		out = append(out, e, New().SubWord(New().Lsh(e, 1), 1))
	}
	return out
}

// TestMontEquivalenceAgainstBig holds every Montgomery entry point to
// math/big for 1–40 limbs under every multiplication setting.
func TestMontEquivalenceAgainstBig(t *testing.T) {
	for _, cfg := range mulConfigs {
		cfg := cfg
		t.Run(fmt.Sprintf("mode=%d/thr=%d", cfg.mode, cfg.thr), func(t *testing.T) {
			withConfig(cfg.mode, cfg.thr, func() {
				r := rand.New(rand.NewSource(int64(300 + cfg.thr + int(cfg.mode))))
				for limbs := 1; limbs <= 40; limbs++ {
					for k, n := range testModuli(r, limbs) {
						checkMont(t, r, n, limbs, k == 0)
					}
				}
			})
		})
	}
}

// checkMont compares one modulus's Montgomery entry points with
// math/big; thorough runs every window-shape exponent, otherwise a few
// shapes keep the 1–40 limb sweep cheap enough for the race gate.
func checkMont(t *testing.T, r *rand.Rand, n *Int, limbs int, thorough bool) {
	t.Helper()
	m, err := NewMont(n)
	if err != nil {
		t.Fatal(err)
	}
	N := toBig(n)
	R := new(big.Int).Lsh(big.NewInt(1), uint(WordBits*len(n.d)))
	Rinv := new(big.Int).ModInverse(R, N)
	modN := func(v *big.Int) *big.Int { return v.Mod(v, N) }

	xs := []*Int{
		New(), // x = 0
		New().Mod(New().SetBytes(randBytes(r, 4*limbs)), n),
		New().SubWord(n, 1),                           // N-1
		New().Add(n, New().SetBytes(randBytes(r, 8))), // x >= N
	}
	// Window shapes and a multi-window exponent on the random base; a
	// few shapes on the edge-case bases.
	all := windowExponents()
	few := []*Int{all[0], all[2*expWindow-1], all[2*expWindow+1], all[len(all)-1]}
	full := New().SetBytes(randBytes(r, 4*min(limbs, 4)))
	for i, x := range xs {
		es, us := few, []uint64{1, 65537}
		if i == 1 {
			es, us = append(few, full), []uint64{1, 2, 3, 15, 16, 17, 65537, 1<<40 + 5}
			if thorough {
				es = append(all, full)
			}
		}
		for _, e := range es {
			want := new(big.Int).Exp(toBig(x), toBig(e), N)
			if got := m.Exp(New(), x, e); toBig(got).Cmp(want) != 0 {
				t.Fatalf("%d limbs: Exp(%s, %s) mod %s = %s, want %s", limbs, x, e, n, got, want.Text(16))
			}
			if i%2 == 0 {
				continue
			}
			if got := New().ModExp(x, e, n); toBig(got).Cmp(want) != 0 {
				t.Fatalf("%d limbs: ModExp(%s, %s) mod %s = %s, want %s", limbs, x, e, n, got, want.Text(16))
			}
		}
		for _, e := range us {
			want := new(big.Int).Exp(toBig(x), new(big.Int).SetUint64(e), N)
			if got := m.ExpUint64(New(), x, e); toBig(got).Cmp(want) != 0 {
				t.Fatalf("%d limbs: ExpUint64(%s, %d) = %s, want %s", limbs, x, e, got, want.Text(16))
			}
		}
	}

	x1 := New().SetBytes(randBytes(r, 4*limbs+3)) // may exceed N
	x2 := New().Mod(New().SetBytes(randBytes(r, 4*limbs)), n)
	e1 := New().SetBytes(randBytes(r, 1+r.Intn(16)))
	e2 := New().SetBytes(randBytes(r, 1+r.Intn(16)))
	want := modN(new(big.Int).Mul(
		new(big.Int).Exp(toBig(x1), toBig(e1), N),
		new(big.Int).Exp(toBig(x2), toBig(e2), N)))
	if got := m.Exp2(New(), x1, e1, x2, e2); toBig(got).Cmp(want) != 0 {
		t.Fatalf("%d limbs: Exp2 = %s, want %s", limbs, got, want.Text(16))
	}

	// The public single operations, with z reused across calls.
	a := xs[1]
	b := New().Mod(New().SetBytes(randBytes(r, 4*limbs)), n)
	z := New()
	wantSqr := modN(new(big.Int).Mul(new(big.Int).Mul(toBig(a), toBig(a)), Rinv))
	if m.SqrMont(z, a); toBig(z).Cmp(wantSqr) != 0 {
		t.Fatalf("%d limbs: SqrMont(%s) = %s, want %s", limbs, a, z, wantSqr.Text(16))
	}
	wantMul := modN(new(big.Int).Mul(new(big.Int).Mul(toBig(a), toBig(b)), Rinv))
	if m.MulMont(z, a, b); toBig(z).Cmp(wantMul) != 0 {
		t.Fatalf("%d limbs: MulMont = %s, want %s", limbs, z, wantMul.Text(16))
	}
	if m.FromMont(z, m.ToMont(z, a)); !z.Equal(a) {
		t.Fatalf("%d limbs: FromMont(ToMont(%s)) = %s", limbs, a, z)
	}
	if got := m.FromMont(New(), m.One()); !got.IsOne() {
		t.Fatalf("%d limbs: One() is not 1 in Montgomery form: %s", limbs, got)
	}
}

// TestRedcFinalSubtractionCases drives the constant-time reduction
// through all three outcomes of its final step — a top carry out of R,
// a result in [N, R) and a result already below N — and checks each
// against math/big. The branch-free select must be right on all three.
func TestRedcFinalSubtractionCases(t *testing.T) {
	r := rand.New(rand.NewSource(310))
	for limbs := 1; limbs <= 24; limbs++ {
		var carry, sub, keep int
		for _, n := range testModuli(r, limbs) {
			m, _ := NewMont(n)
			var ws montWS
			x := ws.init(m, 1)[:ws.np]
			N := toBig(n)
			R := new(big.Int).Lsh(big.NewInt(1), uint(WordBits*len(n.d)))
			Rinv := new(big.Int).ModInverse(R, N)
			nPrime := new(big.Int).Sub(R, new(big.Int).ModInverse(N, R))
			for i := 0; i < 128; i++ {
				a := new(big.Int).Rand(r, N)
				b := new(big.Int).Rand(r, N)
				t2 := new(big.Int).Mul(a, b)
				// The pre-subtraction value (t + (t·n' mod R)·N) / R.
				q := new(big.Int).Mul(t2, nPrime)
				q.Mod(q, R)
				u := q.Mul(q, N)
				u.Add(u, t2).Rsh(u, uint(WordBits*len(n.d)))
				switch {
				case u.Cmp(R) >= 0:
					carry++
				case u.Cmp(N) >= 0:
					sub++
				default:
					keep++
				}
				ws.load(x, fromBig(a))
				ws.load(ws.tmp, fromBig(b))
				ws.mul(x, x, ws.tmp)
				want := new(big.Int).Mul(t2, Rinv)
				want.Mod(want, N)
				if got := toBig(ws.store(New(), x)); got.Cmp(want) != 0 {
					t.Fatalf("%d limbs, N=%s: redc(%s·%s) = %s, want %s",
						limbs, n, a.Text(16), b.Text(16), got.Text(16), want.Text(16))
				}
			}
		}
		if carry == 0 || sub == 0 || keep == 0 {
			t.Fatalf("%d limbs: final-step outcomes carry=%d subtract=%d keep=%d, want all exercised",
				limbs, carry, sub, keep)
		}
	}
}

// TestGatherReturnsEveryEntry pins the interleaved table: the masked
// scan returns exactly the entry scattered at each index.
func TestGatherReturnsEveryEntry(t *testing.T) {
	const np = 5
	table := make([]Word, np<<expWindow)
	entry := make([]Word, np)
	for idx := 0; idx < 1<<expWindow; idx++ {
		for i := range entry {
			entry[i] = Word(idx*2654435761 + i*40503 + 1)
		}
		scatter(table, entry, idx)
	}
	out := make([]Word, np)
	for idx := 0; idx < 1<<expWindow; idx++ {
		gather(out, table, idx)
		for i, w := range out {
			if want := Word(idx*2654435761 + i*40503 + 1); w != want {
				t.Fatalf("entry %d limb %d = %x, want %x", idx, i, w, want)
			}
		}
	}
}

// TestMontExpAllocs gates the workspace design: an exponentiation
// allocates its one slab (plus z's limbs the first time), never per
// multiplication.
func TestMontExpAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	rnd := newRandReader(311)
	for _, cfg := range mulConfigs {
		withConfig(cfg.mode, cfg.thr, func() {
			for _, bits := range []int{512, 1024} {
				n, _ := New().Rand(rnd, bits, true)
				n.d[0] |= 1
				x, _ := New().Rand(rnd, bits-1, false)
				e, _ := New().Rand(rnd, bits, false)
				m, _ := NewMont(n)
				z := New()
				allocs := testing.AllocsPerRun(5, func() { m.Exp(z, x, e) })
				if allocs > 4 {
					t.Errorf("mode %d thr %d: %d-bit Mont.Exp allocs = %.0f, want <= 4",
						cfg.mode, cfg.thr, bits, allocs)
				}
			}
		})
	}
}

// TestSharedMontConcurrent runs exponentiations on one Mont from
// several goroutines while another flips the multiplication knobs,
// the way batch-RSA workers share a key set's context. Each call must
// keep the configuration it started with, and every result must match
// math/big. Run with -race to check the knobs and profiler flag.
func TestSharedMontConcurrent(t *testing.T) {
	rnd := newRandReader(312)
	n, _ := New().Rand(rnd, 768, true)
	n.d[0] |= 1
	m, _ := NewMont(n)
	// Restore the knobs the flipper leaves behind.
	prevMode, prevThr := CurrentMulMode(), SetKaratsubaThreshold(16)
	defer func() {
		SetMulMode(prevMode)
		SetKaratsubaThreshold(prevThr)
	}()
	stop := make(chan struct{})
	var flipper sync.WaitGroup
	flipper.Add(1)
	go func() {
		defer flipper.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			cfg := mulConfigs[i%len(mulConfigs)]
			SetMulMode(cfg.mode)
			SetKaratsubaThreshold(cfg.thr)
			runtime.Gosched()
		}
	}()
	var wg sync.WaitGroup
	errs := make(chan string, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(313 + g)))
			for i := 0; i < 6; i++ {
				x := New().Mod(New().SetBytes(randBytes(r, 96)), n)
				e := New().SetBytes(randBytes(r, 1+r.Intn(96)))
				want := new(big.Int).Exp(toBig(x), toBig(e), toBig(n))
				if got := m.Exp(New(), x, e); toBig(got).Cmp(want) != 0 {
					errs <- fmt.Sprintf("goroutine %d: Exp mismatch", g)
					return
				}
				small := uint64(r.Uint32())
				want.Exp(toBig(x), new(big.Int).SetUint64(small), toBig(n))
				if got := m.ExpUint64(New(), x, small); toBig(got).Cmp(want) != 0 {
					errs <- fmt.Sprintf("goroutine %d: ExpUint64 mismatch", g)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	flipper.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
