package main

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"
)

// TestQuantileMatchesSortedReference checks the selection-based
// quantile against the nearest rank of a fully sorted copy.
func TestQuantileMatchesSortedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	qs := []float64{0.001, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999, 1}
	for _, n := range []int{1, 2, 3, 10, 99, 100, 101, 1000, 4097} {
		for trial := 0; trial < 5; trial++ {
			v := make([]float64, n)
			for i := range v {
				if trial%2 == 0 {
					v[i] = math.Floor(rng.Float64() * 8) // many ties
				} else {
					v[i] = rng.ExpFloat64()
				}
			}
			ref := slices.Clone(v)
			slices.Sort(ref)
			for _, q := range qs {
				want := ref[int(math.Ceil(q*float64(n)))-1]
				if got := quantile(slices.Clone(v), q); got != want {
					t.Fatalf("n=%d trial=%d q=%v: got %v, want %v", n, trial, q, got, want)
				}
			}
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Fatalf("empty: got %v", got)
	}
}

func TestTailNote(t *testing.T) {
	seq := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(i + 1)
		}
		return v
	}
	if got := tailNote(seq(2000), 0.99); got != "n=2000 beyond=20" {
		t.Fatalf("got %q", got)
	}
	// 500 samples leave 5 beyond p99; the highest percentile with ten
	// beyond is p98, the 490th sample.
	if got := tailNote(seq(500), 0.99); got != "n=500 beyond=5 (p98.00 is the highest with 10 beyond: 490)" {
		t.Fatalf("got %q", got)
	}
}

func TestCoveredUnionsOverlaps(t *testing.T) {
	at := func(ms int) time.Time { return time.Unix(0, 0).Add(time.Duration(ms) * time.Millisecond) }
	spans := []span{{at(5), at(7)}, {at(0), at(2)}, {at(1), at(3)}, {at(6), at(9)}, {at(9), at(10)}}
	if got := covered(spans); got != 8*time.Millisecond {
		t.Fatalf("covered = %v, want 8ms", got)
	}
}

// TestSeriesQuantileMedianOfSlices checks that a series cut into slices
// reports the median of the slices' exact quantiles, so one stalled
// slice does not move it, and that a small series uses one slice.
func TestSeriesQuantileMedianOfSlices(t *testing.T) {
	from := time.Unix(100, 0)
	s := series{from: from, to: from.Add(6 * time.Second)}
	for i := 0; i < 6000; i++ {
		v := float64(i%1000) / 100 // 0 .. 9.99 in every slice
		if i/1000 == 2 && i%1000 >= 900 {
			v = 500 // a stall in the third second: its top 10% explode
		}
		s.add(from.Add(time.Duration(i)*time.Millisecond), v)
	}
	if k := s.slices(0.99); k != 6 {
		t.Fatalf("slices = %d, want 6", k)
	}
	// Each clean slice's p99 is the 990th of 0.00..9.99: 9.89.
	if got, note := s.quantile(0.99); got != 9.89 || !strings.Contains(note, "median of 6 time slices") {
		t.Fatalf("got %v (%s), want 9.89 from the median of 6 slices", got, note)
	}
	small := series{from: from, to: from.Add(time.Second)}
	for i := 0; i < 500; i++ {
		small.add(from.Add(time.Duration(i)*time.Millisecond), float64(i))
	}
	if got, _ := small.quantile(0.99); got != quantile(slices.Clone(small.v), 0.99) {
		t.Fatalf("one-slice series: got %v", got)
	}
}
