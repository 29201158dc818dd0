// Package family implements the non-EBLC compressor families of the
// unified registry: magnitude sparsification (topk), random
// sparsification (randk), uniform quantization (qsgd) and the
// gradient-aware magnitude/sign predictor (pred). Each registers a
// lossy.Family from init, so linking this package (internal/core
// does) makes the families resolvable by the name recorded in frame
// sections — the same self-describing decode path the error-bounded
// built-ins use.
//
// The registered topk and qsgd are derived from the error bound and
// are bounded: topk keeps every value larger than the absolute bound,
// qsgd derives its code width from it. TopK, QSGD and RandK build the
// classic gradient-compression settings — a kept fraction, a fixed
// width — which do not honour an error bound (neither does the
// registered randk), so a frame of theirs is never a whole image and
// never carries a global model down the tree. Every setting's payload
// decodes through its registered name.
package family

import (
	"encoding/binary"
	"fmt"
	"math"

	"fedsz/internal/lossy"
)

// maxElems caps the element count a family payload may declare
// (beyond lossy.ReadHeader's own cap) so a forged header cannot size
// a giant output allocation: 2^27 float32s = 512 MiB, far above any
// model tensor this repo builds.
const maxElems = 1 << 27

// appendSparse appends the shared sparse payload body: the number of
// kept values, then (index-gap uvarint, float32 value) pairs with
// indices strictly increasing.
func appendSparse(dst []byte, idx []int, vals []float32) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(idx)))
	prev := -1
	for i, ix := range idx {
		dst = binary.AppendUvarint(dst, uint64(ix-prev-1))
		dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(vals[i]))
		prev = ix
	}
	return dst
}

// decodeSparse decodes a sparse payload body into a dense count-sized
// slice, validating every structural invariant (monotone in-range
// indices, entry count consistent with the payload size) before and
// while touching the output.
func decodeSparse(name string, count int, payload []byte) ([]float32, error) {
	if count > maxElems {
		return nil, fmt.Errorf("%w: %s element count %d", lossy.ErrCorrupt, name, count)
	}
	nz, n := binary.Uvarint(payload)
	// Each entry is at least 5 bytes (1-byte gap + 4-byte value), so a
	// declared entry count beyond len/5 is forged.
	if n <= 0 || nz > uint64(count) || nz > uint64(len(payload)-n)/5 {
		return nil, fmt.Errorf("%w: %s entry count", lossy.ErrCorrupt, name)
	}
	payload = payload[n:]
	out := make([]float32, count)
	at := -1
	for i := uint64(0); i < nz; i++ {
		gap, n := binary.Uvarint(payload)
		if n <= 0 || len(payload) < n+4 {
			return nil, fmt.Errorf("%w: %s entry underrun", lossy.ErrCorrupt, name)
		}
		if gap >= uint64(count) { // also keeps the index sum below any wrap
			return nil, fmt.Errorf("%w: %s index gap %d", lossy.ErrCorrupt, name, gap)
		}
		idx := uint64(at+1) + gap
		if idx >= uint64(count) {
			return nil, fmt.Errorf("%w: %s index %d out of range", lossy.ErrCorrupt, name, idx)
		}
		at = int(idx)
		out[at] = math.Float32frombits(binary.LittleEndian.Uint32(payload[n:]))
		payload = payload[n+4:]
	}
	if len(payload) != 0 {
		return nil, fmt.Errorf("%w: %s trailing bytes", lossy.ErrCorrupt, name)
	}
	return out, nil
}
