package main

import "testing"

// TestTailRule checks that the tail is the highest percentile with at least
// tailBeyond samples beyond it, and that short samples report the median.
func TestTailRule(t *testing.T) {
	for _, n := range []int{40, 41, 99, 100, 250, 1000} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending, so tail must sort
		}
		v, pct := tail(xs)
		beyond, atOrBeyond := 0, 0
		for i := 1; i <= n; i++ {
			if float64(i) > v {
				beyond++
			}
			if float64(i) >= v {
				atOrBeyond++
			}
		}
		if beyond < tailBeyond {
			t.Errorf("n=%d: tail %v has %d samples beyond it, want at least %d", n, v, beyond, tailBeyond)
		}
		// The next sample up would leave fewer than tailBeyond beyond it.
		if atOrBeyond-1 >= tailBeyond+1 {
			t.Errorf("n=%d: tail %v is not the highest such percentile (%d samples at or beyond)", n, v, atOrBeyond)
		}
		if want := 100 * float64(n-tailBeyond) / float64(n); pct != want {
			t.Errorf("n=%d: percentile %v, want %v", n, pct, want)
		}
	}
	xs := []float64{5, 1, 3}
	if v, pct := tail(xs); v != 3 || pct != 50 {
		t.Errorf("3 samples: tail %v at p%v, want the median 3 at p50", v, pct)
	}
	if v, _ := tail(make([]float64, minTailSamples-1)); v != 0 {
		t.Errorf("below %d samples the tail must be the median", minTailSamples)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median of 1..4 = %v, want 2.5", m)
	}
	if m := median([]float64{9, 1, 5}); m != 5 {
		t.Errorf("median of {1,5,9} = %v, want 5", m)
	}
}
