package lossy

import "math"

// Metrics summarizes reconstruction quality of a lossy round trip with
// the figures of merit standard in the compression literature (and
// used by SZ/ZFP evaluations): maximum error, RMSE, range-normalized
// RMSE and PSNR.
type Metrics struct {
	MaxAbsErr float64
	RMSE      float64
	NRMSE     float64 // RMSE / value range
	PSNR      float64 // 20·log10(range/RMSE), dB; +Inf for exact
	Range     float64
}

// Evaluate computes reconstruction metrics between original and recon.
// Mismatched lengths yield MaxAbsErr = +Inf and zeroed statistics.
func Evaluate(original, recon []float32) Metrics {
	if len(original) != len(recon) || len(original) == 0 {
		return Metrics{MaxAbsErr: math.Inf(1)}
	}
	mn, mx := original[0], original[0]
	var sumSq, maxErr float64
	for i := range original {
		if original[i] < mn {
			mn = original[i]
		}
		if original[i] > mx {
			mx = original[i]
		}
		d := float64(original[i]) - float64(recon[i])
		if ad := math.Abs(d); ad > maxErr {
			maxErr = ad
		}
		sumSq += float64(d * d)
	}
	m := Metrics{
		MaxAbsErr: maxErr,
		RMSE:      math.Sqrt(sumSq / float64(len(original))),
		Range:     float64(mx) - float64(mn),
	}
	if m.Range > 0 {
		m.NRMSE = m.RMSE / m.Range
	}
	switch {
	case m.RMSE == 0:
		m.PSNR = math.Inf(1)
	case m.Range > 0:
		m.PSNR = 20 * math.Log10(m.Range/m.RMSE)
	}
	return m
}
