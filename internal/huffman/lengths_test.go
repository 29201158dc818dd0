package huffman

import (
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"
)

// refNode and refHeap are the pointer-heap tree build huffmanLengths
// replaced, kept as its reference: a binary min-heap of nodes ordered
// by (freq, depth, min leaf symbol), merged two at a time, with the
// leaf depths read off by a recursive walk.
type refNode struct {
	freq  int64
	sym   int32 // min leaf symbol under this node (tie-break)
	idx   int32 // pair index for leaves, -1 for internal nodes
	depth int32
	left  *refNode
	right *refNode
}

type refHeap []*refNode

func (a *refNode) less(b *refNode) bool {
	if a.freq != b.freq {
		return a.freq < b.freq
	}
	if a.depth != b.depth {
		return a.depth < b.depth
	}
	return a.sym < b.sym
}

func (h refHeap) down(i, n int) {
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		if r := l + 1; r < n && h[r].less(h[l]) {
			l = r
		}
		if !h[l].less(h[i]) {
			return
		}
		h[i], h[l] = h[l], h[i]
		i = l
	}
}

func (h *refHeap) push(nd *refNode) {
	*h = append(*h, nd)
	for i := len(*h) - 1; i > 0; {
		parent := (i - 1) / 2
		if !(*h)[i].less((*h)[parent]) {
			return
		}
		(*h)[i], (*h)[parent] = (*h)[parent], (*h)[i]
		i = parent
	}
}

func (h *refHeap) pop() *refNode {
	old := *h
	n := len(old) - 1
	top := old[0]
	old[0] = old[n]
	*h = old[:n]
	h.down(0, n)
	return top
}

// refHuffmanLengths is the heap build over symbols syms (ascending)
// with frequencies freqs: each leaf's depth and the largest.
func refHuffmanLengths(syms []int32, freqs []int64) ([]uint8, int) {
	h := make(refHeap, 0, len(syms))
	for i, s := range syms {
		h = append(h, &refNode{freq: freqs[i], sym: s, idx: int32(i)})
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i, len(h))
	}
	for len(h) > 1 {
		a, b := h.pop(), h.pop()
		h.push(&refNode{
			freq:  a.freq + b.freq,
			depth: max(a.depth, b.depth) + 1,
			sym:   min(a.sym, b.sym),
			idx:   -1,
			left:  a,
			right: b,
		})
	}
	lens := make([]uint8, len(syms))
	maxLen := 0
	var walk func(nd *refNode, depth int)
	walk = func(nd *refNode, depth int) {
		if nd.left == nil {
			lens[nd.idx] = uint8(max(depth, 1))
			maxLen = max(maxLen, int(lens[nd.idx]))
			return
		}
		walk(nd.left, depth+1)
		walk(nd.right, depth+1)
	}
	walk(h[0], 0)
	return lens, maxLen
}

// refBuildLengths is buildLengths over the heap build: flatten and
// retry until the tree fits MaxCodeLen.
func refBuildLengths(syms []int32, freqs []int64) []uint8 {
	if len(syms) == 1 {
		return []uint8{1}
	}
	tmp := slices.Clone(freqs)
	for {
		lens, maxLen := refHuffmanLengths(syms, tmp)
		if maxLen <= MaxCodeLen {
			return lens
		}
		for i, c := range tmp {
			tmp[i] = (c + 1) / 2
		}
	}
}

// setPairs loads a histogram into e as buildLengths finds it.
func setPairs(e *encoder, syms []int32, freqs []int64) {
	e.pairs = e.pairs[:0]
	for i, s := range syms {
		e.pairs = append(e.pairs, symFreq{sym: s, freq: freqs[i]})
	}
}

// checkLengths compares huffmanLengths on the scratch, frequencies set
// directly in e.tmp (no flattening), and buildLengths, with the heap's.
func checkLengths(t *testing.T, e *encoder, what string, syms []int32, freqs []int64) {
	t.Helper()
	if len(syms) >= 2 {
		setPairs(e, syms, freqs)
		e.tmp = append(e.tmp[:0], freqs...)
		e.lens = slices.Grow(e.lens[:0], len(syms))[:len(syms)]
		gotMax := e.huffmanLengths()
		want, wantMax := refHuffmanLengths(syms, freqs)
		if gotMax != wantMax || !slices.Equal(e.lens, want) {
			t.Fatalf("%s: one tree: lengths %v (max %d), heap %v (max %d)", what, e.lens, gotMax, want, wantMax)
		}
	}
	setPairs(e, syms, freqs)
	e.buildLengths()
	if want := refBuildLengths(syms, freqs); !slices.Equal(e.lens, want) {
		t.Fatalf("%s: limited: lengths %v, heap %v", what, e.lens, want)
	}
}

// ascendingSyms returns n distinct symbols, ascending, spread by rng.
func ascendingSyms(rng *rand.Rand, n int) []int32 {
	syms := make([]int32, n)
	s := int32(rng.Intn(4))
	for i := range syms {
		syms[i] = s
		s += 1 + int32(rng.Intn(3))
	}
	return syms
}

// TestHuffmanLengthsMatchHeap pins the two-queue merge's code lengths
// to the heap build's, which fixed every committed stream: random
// histograms, ties, powers of two, frequencies from 2^32 up to ones too
// wide to pack beside the leaf index, and Fibonacci frequencies whose
// tree is too deep until the flatten retry.
func TestHuffmanLengthsMatchHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	e := new(encoder)
	for n := 1; n <= 300; n++ {
		syms := ascendingSyms(rng, n)
		freqs := make([]int64, n)
		for i := range freqs {
			freqs[i] = 1 + rng.Int63n(1000)
		}
		checkLengths(t, e, "random", syms, freqs)
		for i := range freqs {
			freqs[i] = 1 + rng.Int63n(3) // mostly ties
		}
		checkLengths(t, e, "ties", syms, freqs)
		for i := range freqs {
			freqs[i] = 7
		}
		checkLengths(t, e, "all equal", syms, freqs)
		for i := range freqs {
			freqs[i] = 1 << rng.Intn(20)
		}
		checkLengths(t, e, "powers of two", syms, freqs)
		for i := range freqs {
			freqs[i] = 1<<32 + rng.Int63n(1<<40)
		}
		checkLengths(t, e, "at least 2^32", syms, freqs)
		for i := range freqs {
			freqs[i] = 1 + rng.Int63n(1<<20)
		}
		// One frequency too wide to pack beside a 9-bit index: the
		// comparison sort's path.
		freqs[rng.Intn(n)] = 1<<56 + rng.Int63n(1<<20)
		checkLengths(t, e, "unpackable", syms, freqs)
		for i := range freqs {
			freqs[i] = 1 + rng.Int63n(3)
		}
		freqs[rng.Intn(n)] = 1 << 60
		checkLengths(t, e, "unpackable ties", syms, freqs)
	}
	// Fibonacci frequencies give a chain as deep as the alphabet, past
	// MaxCodeLen from 32 symbols on.
	for _, n := range []int{2, 30, 31, 32, 33, 40, 60, 90} {
		syms := ascendingSyms(rng, n)
		freqs := make([]int64, n)
		a, b := int64(1), int64(1)
		for i := range freqs {
			freqs[i] = a
			a, b = b, a+b
		}
		rng.Shuffle(n, func(i, j int) { freqs[i], freqs[j] = freqs[j], freqs[i] })
		checkLengths(t, e, "fibonacci", syms, freqs)
		if n >= 32 {
			setPairs(e, syms, freqs)
			e.tmp = append(e.tmp[:0], freqs...)
			e.lens = slices.Grow(e.lens[:0], n)[:n]
			if d := e.huffmanLengths(); d <= MaxCodeLen {
				t.Fatalf("fibonacci n=%d: unflattened depth %d does not force the retry", n, d)
			}
		}
	}
}

// fuzzFreq packs a frequency as FuzzHuffmanLengths reads it: a 10-bit
// mantissa less one and a 6-bit exponent (taken mod 41), rounded down.
func fuzzFreq(f int64) uint16 {
	e := 0
	for f>>e > 1024 {
		e++
	}
	return uint16(e)<<10 | uint16(f>>e-1)
}

// FuzzHuffmanLengths builds the code lengths of a fuzz-chosen histogram,
// two bytes per present symbol (see fuzzFreq), so one histogram can span
// 2^50 and need the flatten retry. The lengths must match the heap
// build's, and a stream over the histogram, where it has at most 2^16
// symbols, must round-trip.
func FuzzHuffmanLengths(f *testing.F) {
	for _, freqs := range [][]int64{{5, 5, 9, 1}, {65536, 1, 1 << 40, 3}} {
		var data []byte
		for _, fq := range freqs {
			data = binary.BigEndian.AppendUint16(data, fuzzFreq(fq))
		}
		f.Add(data)
	}
	var fib []byte // deep enough to force the retry
	a, b := int64(1), int64(1)
	for range 40 {
		fib = binary.BigEndian.AppendUint16(fib, fuzzFreq(a))
		a, b = b, a+b
	}
	f.Add(fib)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 || len(data) > 2*512 {
			return
		}
		var syms []int32
		var freqs []int64
		total := int64(0)
		for i := 0; i+1 < len(data); i += 2 {
			w := binary.BigEndian.Uint16(data[i:])
			fq := int64(w&0x3ff+1) << (w >> 10 % 41) // below 2^51
			syms = append(syms, int32(i))
			freqs = append(freqs, fq)
			total += fq
		}
		checkLengths(t, new(encoder), "fuzz", syms, freqs)
		if total > 1<<16 {
			return
		}
		var symbols []int32
		for i, s := range syms {
			for range freqs[i] {
				symbols = append(symbols, s)
			}
		}
		rand.New(rand.NewSource(total)).Shuffle(len(symbols), func(i, j int) {
			symbols[i], symbols[j] = symbols[j], symbols[i]
		})
		buf, err := AppendEncode(nil, symbols)
		if err != nil {
			t.Fatal(err)
		}
		back, err := decode(buf)
		if err != nil || !slices.Equal(back, symbols) {
			t.Fatalf("round trip of %d symbols failed (err %v)", len(symbols), err)
		}
	})
}
