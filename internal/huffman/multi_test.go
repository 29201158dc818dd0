package huffman

import (
	"math/rand"
	"slices"
	"strconv"
	"testing"
)

// greedyEntry is the multi-code entry for window idx read the long way:
// look up the window's first code by its canonical value, keep it if it
// is short and fits the bits left, and go on with the next, at most
// multiCodes times.
func greedyEntry(d *Decoder, idx uint64) uint64 {
	var n, bits uint64
	var indices uint64
	for n < multiCodes {
		rest := multiBits - bits
		found := false
		for l := uint64(1); l <= min(uint64(d.maxLen), rest) && !found; l++ {
			code := uint32(idx >> (rest - l) & (1<<l - 1))
			diff := int64(code) - int64(d.firstCode[l])
			if d.countLen[l] == 0 || diff < 0 || diff >= int64(d.countLen[l]) {
				continue
			}
			j := uint64(d.offset[l]) + uint64(diff)
			if j >= shortCodes {
				return indices<<8 | n<<4 | bits
			}
			indices |= j << (8 * n)
			n, bits, found = n+1, bits+l, true
		}
		if !found {
			break
		}
	}
	return indices<<8 | n<<4 | bits
}

type namedStream struct {
	name    string
	symbols []int32
}

// multiStreams are streams that pass the multi-code gate, each with
// something for the table to get wrong.
func multiStreams(rng *rand.Rand) []namedStream {
	// More than shortCodes symbols: the rare ones lie past the short
	// codes and end an entry.
	wide := sz2Codes(30000)
	for i := range wide {
		if rng.Intn(20) == 0 {
			wide[i] = int32(rng.Intn(400))
		}
	}
	// Codes longer than fastBits often enough to sit inside windows.
	long := sz2Codes(30000)
	for i := range long {
		if rng.Intn(50) == 0 {
			long[i] = 100 + int32(rng.Intn(3000))
		}
	}
	return []namedStream{
		{"sz2_8192", sz2Codes(multiMinCount)},
		{"sz2_20000", sz2Codes(20000)},
		{"one_symbol", make([]int32, multiMinCount)}, // a 1-bit code and a Kraft gap
		{"wide", wide},
		{"long", long},
	}
}

// TestMultiTableMatchesGreedy: buildMulti's one pass in trailing-zero
// order gives, at every index, the entry the greedy walk over canonical
// codes gives, and the short arrays name each canonical index's symbol
// and length.
func TestMultiTableMatchesGreedy(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	d := AcquireDecoder()
	defer d.Release()
	for _, s := range multiStreams(rng) {
		name := s.name
		buf, err := AppendEncode(nil, s.symbols)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Open(buf); err != nil || !d.multiOn {
			t.Fatalf("%s: multi-code table not built (%v)", name, err)
		}
		for l := 1; l <= min(d.maxLen, multiBits); l++ {
			for j := d.offset[l]; j < min(d.offset[l]+d.countLen[l], shortCodes); j++ {
				if d.multi.short[j] != d.syms[j] || int(d.multi.shortLen[j]) != l {
					t.Fatalf("%s: short[%d] = %d of %d bits, canonical symbol %d of %d",
						name, j, d.multi.short[j], d.multi.shortLen[j], d.syms[j], l)
				}
			}
		}
		for idx := range uint64(1 << multiBits) {
			if got, want := d.multi.entries[idx], greedyEntry(d, idx); got != want {
				t.Fatalf("%s: entry %#x = %#x, greedy walk %#x", name, idx, got, want)
			}
		}
	}
}

// TestMultiTableMatchesScalar drives the gated streams through
// DecodeInto in random chunks, against the per-symbol loop: whole, cut
// at sampled lengths and with sampled single bits flipped, each failure
// at the same symbol with the same error class.
func TestMultiTableMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for _, s := range multiStreams(rng) {
		name := s.name
		buf, err := AppendEncode(nil, s.symbols)
		if err != nil {
			t.Fatal(err)
		}
		checkDecoders(t, rng, name, buf)
		start := bodyStart(t, buf)
		for k := 0; k < 24; k++ {
			cut := start + rng.Intn(len(buf)-start)
			if k < 8 {
				cut = len(buf) - 1 - k // the body's last bytes
			}
			checkDecoders(t, rng, name+" truncated at "+strconv.Itoa(cut), buf[:cut])
			flipped := slices.Clone(buf)
			flipped[cut] ^= 1 << rng.Intn(8)
			checkDecoders(t, rng, name+" flipped at "+strconv.Itoa(cut), flipped)
		}
	}
}

// TestMultiGate: the table is built from the header alone, for a
// stream of at least multiMinCount codes averaging few bits, and not
// for a shorter one, a byte-token stream of 7-8 bits a code, or one
// whose codes are mostly long.
func TestMultiGate(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	tokens := make([]byte, 1<<16)
	rng.Read(tokens)
	long := make([]int32, 1<<15)
	for i := range long {
		long[i] = int32(rng.Intn(5000))
	}
	for _, tc := range []struct {
		name string
		buf  []byte
		want bool
	}{
		{"sz2", mustEncode(t, sz2Codes(multiMinCount)), true},
		{"sz2_short", mustEncode(t, sz2Codes(multiMinCount-1)), false},
		{"tokens", AppendEncodeBytes(nil, tokens), false},
		{"uniform5000", mustEncode(t, long), false},
	} {
		d := AcquireDecoder()
		if err := d.Open(tc.buf); err != nil || d.multiOn != tc.want {
			t.Fatalf("%s: multi-code table built %v (%v), want %v", tc.name, d.multiOn, err, tc.want)
		}
		d.Release()
	}
}

func mustEncode(t *testing.T, symbols []int32) []byte {
	t.Helper()
	buf, err := AppendEncode(nil, symbols)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}
