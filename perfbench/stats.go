package main

import (
	"math"
	"sort"
)

// Summary describes one metric's samples within a run: the median, the
// quartiles (Python's statistics.quantiles(n=4), "exclusive" method,
// so a reader can recompute them), the sample count, and the tail.
type Summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	// Spread is (Q3-Q1)/Median: the run-to-run noise floor a change
	// must beat.
	Spread float64 `json:"spread"`
	// Tail is the highest percentile with at least ten samples beyond
	// it; TailPct names that percentile and TailBeyond counts the
	// samples above it. Absent (TailBeyond 0) under eleven samples.
	Tail       float64 `json:"tail,omitempty"`
	TailPct    float64 `json:"tail_pct,omitempty"`
	TailBeyond int     `json:"tail_beyond,omitempty"`
}

// tailBeyond is the number of samples the tail percentile must leave
// above it, so one outlier cannot be the tail.
const tailBeyond = 10

// summarize computes the Summary of vals (which it does not modify).
func summarize(vals []float64) Summary {
	s := Summary{N: len(vals)}
	if len(vals) == 0 {
		return s
	}
	d := append([]float64(nil), vals...)
	sort.Float64s(d)
	s.Median = median(d)
	s.Q1, s.Q3 = quartiles(d)
	if s.Median != 0 {
		s.Spread = (s.Q3 - s.Q1) / math.Abs(s.Median)
	}
	if v, pct, ok := tail(d); ok {
		s.Tail, s.TailPct, s.TailBeyond = v, pct, tailBeyond
	}
	return s
}

// median of sorted data.
func median(d []float64) float64 {
	n := len(d)
	if n%2 == 1 {
		return d[n/2]
	}
	return (d[n/2-1] + d[n/2]) / 2
}

// quartiles returns Q1 and Q3 of sorted data exactly as Python's
// statistics.quantiles(d, n=4) does with its default exclusive method.
func quartiles(d []float64) (q1, q3 float64) {
	ld := len(d)
	if ld == 1 {
		return d[0], d[0]
	}
	q := func(i int) float64 {
		const n = 4
		m := ld + 1
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (d[j-1]*float64(n-delta) + d[j]*float64(delta)) / n
	}
	return q(1), q(3)
}

// tail picks, from sorted data, the highest-ranked sample that still
// has tailBeyond samples above it, and the percentile it sits at (the
// share of samples at or below it). It reports false when there are
// too few samples for any such percentile.
func tail(d []float64) (v, pct float64, ok bool) {
	k := len(d) - tailBeyond - 1
	if k < 0 {
		return 0, 0, false
	}
	return d[k], 100 * float64(k+1) / float64(len(d)), true
}
