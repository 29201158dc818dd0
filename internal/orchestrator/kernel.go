package orchestrator

// The aggregator's three whole-model loops. Each runs its multiple-of-four
// head through a four-lane kernel where useAVX2 holds and its tail (or
// the whole slice elsewhere) through the scalar loop, which is also the
// reference the kernels are tested against bit for bit: a kernel does the
// loop's operations in its order and with its source-operand order, so
// even a NaN's payload comes out the same.

// addScaled folds one tensor: sum[j] += float64(w * float64(data[j])).
// float64(...) rounds the product on its own, so no architecture fuses
// it into the add: a withdraw subtracts exactly what was added.
func addScaled(sum []float64, data []float32, w float64) {
	sum = sum[:len(data)]
	j := 0
	if useAVX2 {
		if j = len(data) &^ 3; j > 0 {
			addScaledAVX2(sum[:j], data[:j], w)
		}
	}
	for ; j < len(data); j++ {
		sum[j] += float64(w * float64(data[j]))
	}
}

// addRaw folds one partial entry: sum[j] += v[j], the sums verbatim.
func addRaw(sum, v []float64) {
	sum = sum[:len(v)]
	j := 0
	if useAVX2 {
		if j = len(v) &^ 3; j > 0 {
			addRawAVX2(sum[:j], v[:j])
		}
	}
	for ; j < len(v); j++ {
		sum[j] += v[j]
	}
}

// divide commits one entry: d[j] = float32(sum[j] / total), a divide
// (a reciprocal multiply rounds differently) and then one rounding to
// float32.
func divide(d []float32, sum []float64, total float64) {
	d = d[:len(sum)]
	j := 0
	if useAVX2 {
		if j = len(sum) &^ 3; j > 0 {
			divideAVX2(d[:j], sum[:j], total)
		}
	}
	for ; j < len(sum); j++ {
		d[j] = float32(sum[j] / total)
	}
}
