package main

import (
	"fmt"
	"math"
	"slices"
	"time"
)

// quantile returns the nearest-rank q-quantile of samples: the
// ceil(q*n)-th smallest value. It selects in place (samples is
// reordered) and never buckets, so a 1% change in the tail shows as
// a 1% change in the result. It returns 0 for an empty slice.
func quantile(samples []float64, q float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	return selectKth(samples, rankOf(q, n)-1)
}

// rankOf is the 1-based nearest rank of the q-quantile of n samples.
func rankOf(q float64, n int) int {
	r := int(math.Ceil(q * float64(n)))
	return min(max(r, 1), n)
}

// selectKth returns the k-th smallest (0-based) element of a,
// partially reordering a (Hoare quickselect, median-of-three pivot).
func selectKth(a []float64, k int) float64 {
	lo, hi := 0, len(a)-1
	for lo < hi {
		mid := lo + (hi-lo)/2
		if a[mid] < a[lo] {
			a[mid], a[lo] = a[lo], a[mid]
		}
		if a[hi] < a[lo] {
			a[hi], a[lo] = a[lo], a[hi]
		}
		if a[hi] < a[mid] {
			a[hi], a[mid] = a[mid], a[hi]
		}
		pivot := a[mid]
		i, j := lo, hi
		for i <= j {
			for a[i] < pivot {
				i++
			}
			for a[j] > pivot {
				j--
			}
			if i <= j {
				a[i], a[j] = a[j], a[i]
				i++
				j--
			}
		}
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return a[k]
		}
	}
	return a[k]
}

// tailNote describes how well the samples support their q-quantile:
// the count beyond it and, when fewer than ten lie beyond, the highest
// percentile that has ten, with its value. It reorders v.
func tailNote(v []float64, q float64) string {
	n := len(v)
	if n == 0 {
		return "n=0"
	}
	beyond := n - rankOf(q, n)
	switch {
	case beyond >= 10:
		return fmt.Sprintf("n=%d beyond=%d", n, beyond)
	case n <= 10:
		return fmt.Sprintf("n=%d beyond=%d (no percentile has 10 beyond)", n, beyond)
	}
	hq := float64(n-10) / float64(n)
	return fmt.Sprintf("n=%d beyond=%d (p%.2f is the highest with 10 beyond: %.4g)",
		n, beyond, 100*hq, quantile(v, hq))
}

// maxSlices caps how many time slices a series is cut into.
const maxSlices = 6

// series is a set of samples taken over [from, to).
type series struct {
	from, to time.Time
	at       []time.Time
	v        []float64
}

func (s *series) add(at time.Time, v float64) {
	s.at = append(s.at, at)
	s.v = append(s.v, v)
}

// slices is how many equal time slices the q-quantile is taken over:
// the most, up to maxSlices, that still expect ten samples beyond the
// quantile in every slice.
func (s *series) slices(q float64) int {
	k := int(float64(len(s.v)) * (1 - q) / 10)
	return min(max(k, 1), maxSlices)
}

// quantile is the median, over the series' time slices, of each
// slice's exact q-quantile. A stall that hits one slice moves its
// quantile alone, so on a noisy host the median of slices repeats
// better than one quantile over the whole span. It returns the value
// and a note with the sample support.
func (s *series) quantile(q float64) (float64, string) {
	n := len(s.v)
	k := s.slices(q)
	if k == 1 || !s.to.After(s.from) {
		return quantile(slices.Clone(s.v), q), tailNote(slices.Clone(s.v), q)
	}
	parts := make([][]float64, k)
	span := s.to.Sub(s.from)
	for i, at := range s.at {
		j := int(float64(at.Sub(s.from)) / float64(span) * float64(k))
		j = min(max(j, 0), k-1)
		parts[j] = append(parts[j], s.v[i])
	}
	per := make([]float64, 0, k)
	least := n
	for _, p := range parts {
		if len(p) > 0 {
			least = min(least, len(p)-rankOf(q, len(p)))
			per = append(per, quantile(p, q))
		}
	}
	return quantile(per, 0.5), fmt.Sprintf("n=%d, median of %d time slices, each with >=%d beyond", n, len(per), least)
}
