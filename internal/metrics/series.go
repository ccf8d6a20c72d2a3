package metrics

// SeriesPoint is one exported bucket of a time series.
type SeriesPoint struct {
	Cycle int64   // bucket start cycle
	Mean  float64 // mean of the observations in the bucket
	N     int64   // observation count
}

// Series is a cycle-bucketed time series: observations are folded into
// fixed-width buckets of simulated time, so a series' memory footprint is
// proportional to simulated cycles / Bucket regardless of observation rate.
// Growth is amortized append; observations themselves never allocate once a
// bucket exists.
type Series struct {
	// Bucket is the bucket width in cycles (a power of two).
	Bucket int64

	sum []float64
	cnt []int64
}

// Observe folds one observation at the given cycle into its bucket.
func (s *Series) Observe(cycle int64, v float64) {
	if s.Bucket <= 0 {
		s.Bucket = 4096
	}
	idx := int(cycle / s.Bucket)
	for idx >= len(s.sum) {
		s.sum = append(s.sum, 0)
		s.cnt = append(s.cnt, 0)
	}
	s.sum[idx] += v
	s.cnt[idx]++
}

// Points exports the non-empty buckets in cycle order.
func (s *Series) Points() []SeriesPoint {
	var out []SeriesPoint
	for i, n := range s.cnt {
		if n == 0 {
			continue
		}
		out = append(out, SeriesPoint{
			Cycle: int64(i) * s.Bucket,
			Mean:  s.sum[i] / float64(n),
			N:     n,
		})
	}
	return out
}
