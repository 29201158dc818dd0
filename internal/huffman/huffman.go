// Package huffman implements a canonical Huffman coder over
// non-negative integer symbols.
//
// It is the entropy stage shared by the SZ2/SZ3 quantization-code
// streams (alphabets of up to 2^16 symbols, of which only a few hundred
// are typically present) and by the LZH lossless codec (byte alphabet).
// Code lengths are limited to MaxCodeLen by iterative frequency
// flattening, and the table is serialized compactly as
// (symbol-delta, length) pairs so that sparse alphabets cost almost
// nothing.
//
// # Word loops and pooling contract
//
// The hot loops keep their 64-bit bit window in locals and move whole
// 8-byte words. AppendEncode, AppendEncodeAlphabet and AppendEncodeBytes
// append a self-describing stream directly to a caller-supplied buffer:
// one counting pass builds the histogram, the code lengths give the
// body's exact size before a bit is written, and dst grows once, to the
// body plus the 7 bytes a word store may reach past it. The body loop
// has no branch on the data: each step shifts in as many codes as fit
// 56 bits (four, three, two or one, from the longest code), stores the
// window as one big-endian word and advances by its whole bytes, so the
// bytes of dst between the returned length and its capacity may be
// written. One loop serves every stream: AppendEncodeAlphabet's (sz2's
// and sz3's element and coefficient codes), AppendEncodeBytes's (the
// LZH token stage) and the sparse path's. A caller that knows its
// alphabet states it (AppendEncodeAlphabet: sz2 and sz3 codes lie in
// [0, 2·radius+2)), so no separate pass looks for the largest or a
// negative symbol. The histogram is scanned only over the span of
// symbols counted, and the code lengths come from a two-queue merge
// over flat index arrays, so a stream's set-up cost follows the symbols
// it uses, not its alphabet.
// Encoder scratch (the frequency table, the sorted leaf keys, the
// tree's frequency and parent arrays, the code tables) is recycled
// through an internal sync.Pool.
//
// On the decode side, AcquireDecoder returns a pooled streaming Decoder:
// Open parses a stream's header, Count reports the number of encoded
// symbols, and DecodeInto decodes the next block of symbols, refilling
// its window a word at a time. Next and DecodeAll are thin loops over
// DecodeInto, and DecodeAllBytes runs its loop straight into a byte
// slice, so a consumer that reconstructs block by block (sz2's
// 128-element blocks) never materializes a whole code array. Call
// Release to return a Decoder to the pool; a released Decoder keeps no
// reference to the stream it decoded.
//
// # Multi-code table
//
// A stream of short codes (sz2's element codes average 2 to 3 bits
// over some 40 symbols) spends its decode time on one table probe per
// code. Where the header shows it pays (multiPays: at least 8 192
// codes, and about 4 bits a code or fewer under the distribution the
// code lengths imply), Open also builds a table indexed by the next 12
// bits of the window whose entries name every whole code those bits
// begin with, up to seven, by index into the first 256 canonical codes,
// with their total length. The build reads and writes each of its 8 Ki
// entries once (buildMulti). DecodeInto then takes whole entries while
// the window holds their bits and dst has room, one refill serving four
// probes, and takes a block's last codes from an entry one by one.
// Codes the table cannot name, and the body's last bits, go through the
// one-code fast table and the bit-serial slow path as before, so the
// symbols, the bits consumed and the failing index and error class are
// a bit-serial decoder's whichever path decodes them.
package huffman

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"sync"

	"fedsz/internal/bitstream"
)

// MaxCodeLen is the maximum admitted code length. Frequencies are
// flattened until the implied tree fits.
const MaxCodeLen = 30

// MaxSymbol is the largest encodable symbol value.
const MaxSymbol = 1<<31 - 1

// fastBits is the width of the single-level fast decode table, and
// fastGroup the codes of up to fastBits bits that a refilled window
// (56 bits or more) surely holds.
const (
	fastBits  = 10
	fastGroup = 56 / fastBits
)

// The multi-code table: an entry, indexed by the next multiBits bits of
// the window, names every whole code those bits begin with, up to
// multiCodes of them, by canonical index into the first shortCodes
// codes. An entry packs its total length in bits 0-3, its code count in
// bits 4-7 and the indices a byte each, first code lowest, from bit 8.
const (
	multiBits  = 12
	multiCodes = 7
	shortCodes = 256
	multiGroup = 56 / multiBits // entries a refilled window surely holds

	// The gate (multiPays). On a 2-vCPU Xeon a build took ~22 µs and
	// saved ~2.5 ns a code on sz2's streams, so it pays from about 8 000
	// codes, at 4 bits a code or fewer.
	multiMinCount    = 8192
	multiMinPerProbe = 3
)

var (
	errCorrupt   = errors.New("huffman: corrupt stream")
	errExhausted = errors.New("huffman: read past declared symbol count")
)

// denseLimit caps the alphabet span for which dense (slice-indexed)
// frequency counting and code lookup are used on the encode hot path.
const denseLimit = 1 << 20

// symCode is a canonical code, code<<8 | length: one load serves the
// body loop both.
type symCode uint64

func newSymCode(code uint32, l uint8) symCode { return symCode(code)<<8 | symCode(l) }

func (c symCode) code() uint64 { return uint64(c >> 8) }
func (c symCode) len() uint    { return uint(uint8(c)) }

type symFreq struct {
	sym  int32
	freq int64
}

// encoder holds all encode-side scratch, recycled through encoderPool:
// the encode path runs once per tensor per round in the FedSZ pipeline
// and is fanned across goroutines, which is exactly the per-P caching
// sync.Pool provides.
type encoder struct {
	freqs  []uint32  // dense symbol counts (cleared after use)
	pairs  []symFreq // present symbols, ascending
	tmp    []int64   // flattened frequencies during length limiting
	lens   []uint8   // code length per pair
	ord    []int32   // pair indices in canonical (length, symbol) order
	cnt    [MaxCodeLen + 2]int32
	keys   []uint64  // leaves by (frequency, symbol): frequency<<shift | pair index
	freq   []int64   // tree node frequencies: leaves, then internal nodes
	parent []int32   // tree node parents, then depths
	codes  []symCode // code per pair
	maxLen uint8     // longest code
	dense  []symCode // code per symbol, up to the largest present
	hdr    []byte
}

var encoderPool = sync.Pool{
	New: func() interface{} { return new(encoder) },
}

// AppendEncode appends the Huffman encoding of symbols (all must be
// >= 0) to dst and returns the extended buffer; dst may be nil. Bytes
// in [len, cap) of the result may have been written. It
// scans symbols for the alphabet, then runs AppendEncodeAlphabet. Where
// int is 32 bits, a stream holding MaxSymbol is an error: its alphabet,
// 2^31, does not fit an int.
func AppendEncode(dst []byte, symbols []int32) ([]byte, error) {
	maxSym := int32(0)
	for _, s := range symbols {
		if s < 0 {
			return nil, symbolError(s, 0)
		}
		maxSym = max(maxSym, s)
	}
	if int64(maxSym) >= math.MaxInt {
		return nil, fmt.Errorf("huffman: alphabet %d does not fit an int", int64(maxSym)+1)
	}
	return AppendEncodeAlphabet(dst, symbols, int(maxSym)+1)
}

// AppendEncodeAlphabet is AppendEncode for symbols the caller bounds:
// every symbol must lie in [0, alphabet), and one that does not is an
// error, as is a negative alphabet (what an alphabet computed past
// MaxInt wraps to). The histogram is then a single counting pass. The
// output bytes are AppendEncode's, whatever bound is stated.
func AppendEncodeAlphabet(dst []byte, symbols []int32, alphabet int) ([]byte, error) {
	if alphabet < 0 {
		return nil, fmt.Errorf("huffman: negative alphabet %d", alphabet)
	}
	e := encoderPool.Get().(*encoder)
	defer encoderPool.Put(e)
	return e.appendAlphabet(dst, symbols, alphabet)
}

// appendAlphabet is AppendEncodeAlphabet on e's scratch.
func (e *encoder) appendAlphabet(dst []byte, symbols []int32, alphabet int) ([]byte, error) {
	if alphabet > denseLimit || uint64(len(symbols)) > math.MaxUint32 {
		return e.appendSparse(dst, symbols, alphabet)
	}
	if err := e.countDense(symbols, alphabet); err != nil {
		return nil, err
	}
	dst = e.appendTable(dst, len(symbols))
	return appendCodes(dst, symbols, e.denseCodes(), e.maxLen), nil
}

// countDense sets e.pairs to the present symbols, ascending, counted in
// a dense table, and leaves the table clear. The count also finds the
// lowest and highest symbol, and only that span is scanned, so a small
// stream does not pay for all 65 538 slots of sz2's and sz3's alphabet;
// within the span a group of eight empty slots is skipped in one test.
// On a 2-vCPU Xeon the span cut a 1 280-code stream's histogram from
// ~20 µs to ~2 µs and cost a 4 Mi-code stream's count about 5 %.
func (e *encoder) countDense(symbols []int32, alphabet int) error {
	if cap(e.freqs) < alphabet {
		e.freqs = make([]uint32, alphabet)
	}
	freqs := e.freqs[:alphabet]
	e.pairs = e.pairs[:0]
	if len(symbols) == 0 {
		return nil
	}
	lo, hi, ok := count(freqs, symbols)
	if !ok {
		return uncount(freqs, symbols, alphabet)
	}
	for at := int(lo); at <= int(hi); at += 8 {
		g := freqs[at:min(at+8, int(hi)+1)]
		if len(g) == 8 && g[0]|g[1]|g[2]|g[3]|g[4]|g[5]|g[6]|g[7] == 0 {
			continue
		}
		for i, c := range g {
			if c > 0 {
				e.pairs = append(e.pairs, symFreq{sym: int32(at + i), freq: int64(c)})
				g[i] = 0
			}
		}
	}
	return nil
}

// count adds symbols into freqs and returns the lowest and highest, or
// stops with ok false at the first symbol outside freqs. A symbol
// widened through uint32 is range-checked by one compare, which also
// drops the bounds check. It is kept out of line because, inlined into
// countDense, the compiler made one of the two CMOVs a branch, and the
// 4 Mi-code count ran ~40 % slower than without the span.
//
//go:noinline
func count(freqs []uint32, symbols []int32) (lo, hi uint, ok bool) {
	lo, hi = uint(len(freqs)), 0
	for _, s := range symbols {
		u := uint(uint32(s))
		if u >= uint(len(freqs)) {
			return 0, 0, false
		}
		freqs[u]++
		lo, hi = min(lo, u), max(hi, u)
	}
	return lo, hi, true
}

// uncount clears the slots countDense counted before the first symbol
// outside [0, alphabet) and returns that symbol's error.
func uncount(freqs []uint32, symbols []int32, alphabet int) error {
	for _, s := range symbols {
		if uint(uint32(s)) >= uint(len(freqs)) {
			return symbolError(s, alphabet)
		}
		freqs[s] = 0
	}
	return nil
}

// AppendEncodeBytes appends the Huffman encoding of a byte-alphabet
// token stream to dst — the LZH codecs' entropy stage. The wire format
// is identical to AppendEncode over the widened tokens, and as there,
// bytes in [len, cap) of the result may have been written.
func AppendEncodeBytes(dst []byte, tokens []byte) []byte {
	e := encoderPool.Get().(*encoder)
	defer encoderPool.Put(e)
	var freqs [256]int64
	for _, t := range tokens {
		freqs[t]++
	}
	e.pairs = e.pairs[:0]
	for s, c := range freqs {
		if c > 0 {
			e.pairs = append(e.pairs, symFreq{sym: int32(s), freq: c})
		}
	}
	dst = e.appendTable(dst, len(tokens))
	return appendCodes(dst, tokens, e.denseCodes(), e.maxLen)
}

// appendCodes appends the code of every symbol, MSB-first, then the
// zero-padded final byte, and returns dst extended by exactly the body.
// dst must have room for the body plus bodySlack bytes, as appendTable
// leaves it, since each step stores a whole word: bytes in [len, cap)
// of the result may be written. maxLen is the longest code in lookup.
//
// The window (acc, n) holds the pending bits in the low n of acc, fewer
// than 8 between steps. A step shifts in as many codes as fit 56 bits
// (4, 3, 2 or 1, from maxLen), stores the window left-aligned as one
// big-endian word at the write position, advances that by the whole
// bytes and keeps the rest: no branch on the data, and the codes of a
// step are joined off the window's dependency chain.
func appendCodes[S int32 | byte](dst []byte, symbols []S, lookup []symCode, maxLen uint8) []byte {
	buf, pos := dst[:cap(dst)], len(dst)
	var acc uint64 // pending bits in the low n; bits above are stale
	var n uint
	switch k := 56 / max(maxLen, 1); {
	case k >= 4:
		pos, acc, n, symbols = codes4(buf, pos, symbols, lookup)
	case k == 3:
		pos, acc, n, symbols = codes3(buf, pos, symbols, lookup)
	case k == 2:
		pos, acc, n, symbols = codes2(buf, pos, symbols, lookup)
	}
	for _, s := range symbols {
		c := lookup[s]
		pos, acc, n = putWord(buf, pos, acc<<(c.len()&63)|c.code(), n+c.len())
	}
	return dst[:pos+int(n+7)>>3]
}

// codes4 is appendCodes's loop for codes of up to 14 bits, four a step,
// from an empty window. It returns the window after the last whole
// step and the symbols left, fewer than four. codes3 and codes2 are
// the same loop for codes of up to 18 and 28 bits.
func codes4[S int32 | byte](buf []byte, pos int, symbols []S, lookup []symCode) (int, uint64, uint, []S) {
	var acc uint64
	var n uint
	for ; len(symbols) >= 4; symbols = symbols[4:] {
		c0, c1, c2, c3 := lookup[symbols[0]], lookup[symbols[1]], lookup[symbols[2]], lookup[symbols[3]]
		w := c0.code()<<(c1.len()&63) | c1.code()
		w = w<<(c2.len()&63) | c2.code()
		w = w<<(c3.len()&63) | c3.code()
		l := c0.len() + c1.len() + c2.len() + c3.len()
		pos, acc, n = putWord(buf, pos, acc<<(l&63)|w, n+l)
	}
	return pos, acc, n, symbols
}

func codes3[S int32 | byte](buf []byte, pos int, symbols []S, lookup []symCode) (int, uint64, uint, []S) {
	var acc uint64
	var n uint
	for ; len(symbols) >= 3; symbols = symbols[3:] {
		c0, c1, c2 := lookup[symbols[0]], lookup[symbols[1]], lookup[symbols[2]]
		w := c0.code()<<(c1.len()&63) | c1.code()
		w = w<<(c2.len()&63) | c2.code()
		l := c0.len() + c1.len() + c2.len()
		pos, acc, n = putWord(buf, pos, acc<<(l&63)|w, n+l)
	}
	return pos, acc, n, symbols
}

func codes2[S int32 | byte](buf []byte, pos int, symbols []S, lookup []symCode) (int, uint64, uint, []S) {
	var acc uint64
	var n uint
	for ; len(symbols) >= 2; symbols = symbols[2:] {
		c0, c1 := lookup[symbols[0]], lookup[symbols[1]]
		w := c0.code()<<(c1.len()&63) | c1.code()
		l := c0.len() + c1.len()
		pos, acc, n = putWord(buf, pos, acc<<(l&63)|w, n+l)
	}
	return pos, acc, n, symbols
}

// putWord stores the window's n pending bits (n < 64), left-aligned, as
// the big-endian word at buf[pos:], and returns the window past its
// whole bytes. The shift is masked so that the compiler emits no check
// for a shift of 64; n is never 0 here.
func putWord(buf []byte, pos int, acc uint64, n uint) (int, uint64, uint) {
	binary.BigEndian.PutUint64(buf[pos:pos+8], acc<<((64-n)&63))
	return pos + int(n>>3), acc, n & 7
}

func symbolError(s int32, alphabet int) error {
	if s < 0 {
		return fmt.Errorf("huffman: negative symbol %d", s)
	}
	return fmt.Errorf("huffman: symbol %d outside alphabet [0, %d)", s, alphabet)
}

// appendSparse encodes an alphabet too wide for the dense tables: it
// counts through a map and codes each symbol by its rank among the
// present ones, so the body still runs through appendCodes.
func (e *encoder) appendSparse(dst []byte, symbols []int32, alphabet int) ([]byte, error) {
	freq := make(map[int32]int64, 256)
	for _, s := range symbols {
		if s < 0 || int(s) >= alphabet {
			return nil, symbolError(s, alphabet)
		}
		freq[s]++
	}
	e.pairs = e.pairs[:0]
	for s, c := range freq {
		e.pairs = append(e.pairs, symFreq{sym: s, freq: c})
	}
	sort.Slice(e.pairs, func(i, j int) bool { return e.pairs[i].sym < e.pairs[j].sym })
	rank := make(map[int32]int32, len(e.pairs))
	for i, p := range e.pairs {
		rank[p.sym] = int32(i)
	}
	ranks := make([]int32, len(symbols))
	for i, s := range symbols {
		ranks[i] = rank[s]
	}
	dst = e.appendTable(dst, len(symbols))
	return appendCodes(dst, ranks, e.codes, e.maxLen), nil
}

// bodySlack is how far past the body appendCodes's word stores reach: a
// store starts at the byte holding the window's first pending bit, a
// byte of the body, and is 8 bytes long.
const bodySlack = 7

// appendTable builds the length-limited canonical code for e.pairs into
// e.codes and e.maxLen, appends the stream header (its length, the
// symbol count and the (symbol-delta, length) table) to dst, and grows
// dst to hold the body, whose size the code lengths fix, and bodySlack.
func (e *encoder) appendTable(dst []byte, count int) []byte {
	e.buildLengths()
	e.canonicalOrder()

	// Header: symbol count, table size, (symbol-delta, length) pairs
	// sorted by symbol.
	hdr := e.hdr[:0]
	hdr = binary.AppendUvarint(hdr, uint64(count))
	hdr = binary.AppendUvarint(hdr, uint64(len(e.pairs)))
	prev := int32(0)
	bodyBits := 0
	for i, p := range e.pairs {
		hdr = binary.AppendUvarint(hdr, uint64(p.sym-prev))
		hdr = append(hdr, e.lens[i])
		prev = p.sym
		bodyBits += int(p.freq) * int(e.lens[i])
	}
	e.hdr = hdr

	// Code assignment in canonical order.
	e.codes = slices.Grow(e.codes[:0], len(e.pairs))[:len(e.pairs)]
	code := uint32(0)
	prevLen := uint8(0)
	for _, idx := range e.ord {
		l := e.lens[idx]
		code <<= uint(l - prevLen)
		e.codes[idx] = newSymCode(code, l)
		code++
		prevLen = l
	}
	e.maxLen = prevLen // canonical order ends at the longest code

	var hdrLen [binary.MaxVarintLen64]byte
	k := binary.PutUvarint(hdrLen[:], uint64(len(hdr)))
	dst = slices.Grow(dst, k+len(hdr)+(bodyBits+7)/8+bodySlack)
	dst = append(dst, hdrLen[:k]...)
	return append(dst, hdr...)
}

// denseCodes spreads e.codes into a table indexed by symbol, up to the
// largest present one. Entries of absent symbols are stale: the
// symbols being encoded are exactly the counted ones.
func (e *encoder) denseCodes() []symCode {
	if len(e.pairs) == 0 {
		return nil
	}
	top := int(e.pairs[len(e.pairs)-1].sym)
	e.dense = slices.Grow(e.dense[:0], top+1)[:top+1]
	for i, p := range e.pairs {
		e.dense[p.sym] = e.codes[i]
	}
	return e.dense
}

// buildLengths computes length-limited code lengths for e.pairs into
// e.lens, flattening frequencies until the tree fits MaxCodeLen.
func (e *encoder) buildLengths() {
	n := len(e.pairs)
	if cap(e.lens) < n {
		e.lens = make([]uint8, n)
	}
	e.lens = e.lens[:n]
	if n == 0 {
		return
	}
	if n == 1 {
		e.lens[0] = 1
		return
	}
	if cap(e.tmp) < n {
		e.tmp = make([]int64, n)
	}
	e.tmp = e.tmp[:n]
	for i, p := range e.pairs {
		e.tmp[i] = p.freq
	}
	for {
		maxLen := e.huffmanLengths()
		if maxLen <= MaxCodeLen {
			return
		}
		// Flatten the distribution and retry.
		for i, c := range e.tmp {
			e.tmp[i] = (c + 1) / 2
		}
	}
}

// huffmanLengths builds one Huffman tree over (e.pairs, e.tmp) and
// writes leaf depths into e.lens, returning the maximum depth (n >= 2).
//
// It is the two-queue merge: the leaves, sorted by (freq, symbol), and a
// FIFO of internal nodes, which are made in strictly increasing (freq,
// depth, min symbol) order because frequencies are positive. Popping
// the smaller head, the leaf first on equal frequency (its depth 0 is
// below any internal node's), takes every node in that order, so the
// tree is the one a min-heap on (freq, depth, min symbol) would build.
// Node k's parent index is above k, so one pass from the root down
// turns parents into depths, in place.
func (e *encoder) huffmanLengths() int {
	n := len(e.pairs)
	// Sort the leaves by (freq, pair index) as packed integer keys (pair
	// order is symbol order). A frequency too wide to pack beside the
	// index falls back to a comparison sort over bare indices.
	shift := uint(bits.Len(uint(n)))
	mask := uint64(1)<<shift - 1
	keys := slices.Grow(e.keys[:0], n)[:n]
	packed := true
	for i, f := range e.tmp {
		keys[i] = uint64(f)<<shift | uint64(i)
		packed = packed && uint64(f)>>(64-shift) == 0
	}
	if packed {
		slices.Sort(keys)
	} else {
		for i := range keys {
			keys[i] = uint64(i)
		}
		slices.SortFunc(keys, func(a, b uint64) int {
			return cmp.Or(cmp.Compare(e.tmp[a], e.tmp[b]), cmp.Compare(a, b))
		})
	}
	e.keys = keys
	// Nodes 0..n-1 are the leaves in sorted order, n..2n-2 the internal
	// nodes in the order they are made; the root is the last.
	m := 2*n - 1
	e.freq = slices.Grow(e.freq[:0], m)[:m]
	e.parent = slices.Grow(e.parent[:0], m)[:m]
	freq, parent := e.freq, e.parent
	for k, key := range keys {
		freq[k] = e.tmp[key&mask]
	}
	leaf, inner := 0, n // the two queue heads
	pop := func(made int) int {
		if leaf < n && (inner == made || freq[leaf] <= freq[inner]) {
			leaf++
			return leaf - 1
		}
		inner++
		return inner - 1
	}
	for k := n; k < m; k++ {
		a := pop(k)
		b := pop(k)
		freq[k] = freq[a] + freq[b]
		parent[a], parent[b] = int32(k), int32(k)
	}
	parent[m-1] = 0 // from here on parent holds depth
	maxLen := 0
	for k := m - 2; k >= 0; k-- {
		d := parent[parent[k]] + 1
		parent[k] = d
		if k < n {
			e.lens[keys[k]&mask] = uint8(d)
			maxLen = max(maxLen, int(d))
		}
	}
	return maxLen
}

// canonicalOrder fills e.ord with pair indices sorted by
// (length, symbol). Pairs are already symbol-ascending, so a counting
// sort by length is stable and gives the canonical order directly.
func (e *encoder) canonicalOrder() {
	n := len(e.pairs)
	if cap(e.ord) < n {
		e.ord = make([]int32, n)
	}
	e.ord = e.ord[:n]
	for i := range e.cnt {
		e.cnt[i] = 0
	}
	for _, l := range e.lens {
		e.cnt[l]++
	}
	next := int32(0)
	var starts [MaxCodeLen + 2]int32
	for l := 1; l < len(starts); l++ {
		starts[l] = next
		next += e.cnt[l]
	}
	for i, l := range e.lens {
		e.ord[starts[l]] = int32(i)
		starts[l]++
	}
}

// Decoder is a streaming canonical Huffman decoder: Open parses a
// stream produced by AppendEncode, then DecodeInto (or Next, DecodeAll
// and DecodeAllBytes, which run its loop) consumes the body without
// materializing intermediate code arrays. Decoders are not safe for
// concurrent use; acquire one per goroutine.
type Decoder struct {
	// The bit window over the body: buf[pos:] is not loaded yet and acc
	// holds the next nAcc bits, left-aligned. Below them acc is zero or
	// holds the start of buf[pos] (a word refill loads a partial byte),
	// so once the body is loaded a fast-table probe reads zero padding.
	buf  []byte
	pos  int
	acc  uint64
	nAcc uint

	count     int // total symbols in the stream
	remaining int
	maxLen    int
	firstCode [MaxCodeLen + 2]uint32 // first canonical code of each length
	offset    [MaxCodeLen + 2]int32  // index of first symbol of each length in syms
	countLen  [MaxCodeLen + 2]int32
	syms      []int32 // symbols in canonical order
	fast      [1 << fastBits]fastEntry
	parseSyms []int32 // header parse scratch (symbol order)
	parseLens []uint8

	multiOn bool        // Open built multi: multiPays held
	multi   *multiTable // allocated by the first stream that builds it
}

// multiTable is the multi-code table, the symbol and length of each
// canonical index its entries can name, and buildMulti's tables of
// shorter windows.
type multiTable struct {
	entries  [1 << multiBits]uint64
	short    [shortCodes]int32
	shortLen [shortCodes]uint8
	lower    [1 << multiBits]uint64
}

type fastEntry struct {
	sym int32
	len int8 // 0 => slow path
}

var decoderPool = sync.Pool{
	New: func() interface{} { return new(Decoder) },
}

// AcquireDecoder returns a pooled Decoder. Pass it to Release when the
// stream is fully consumed.
func AcquireDecoder() *Decoder {
	return decoderPool.Get().(*Decoder)
}

// Release returns the Decoder to the pool. The Decoder drops its
// reference to the stream buffer; the caller must not use it afterward.
func (d *Decoder) Release() {
	d.setBody(nil)
	decoderPool.Put(d)
}

func (d *Decoder) setBody(body []byte) {
	d.buf, d.pos, d.acc, d.nAcc = body, 0, 0, 0
}

// Open parses the stream header and prepares the decode tables. It
// retains buf (without copying) until the next Open or Release.
func (d *Decoder) Open(buf []byte) error {
	d.count, d.remaining, d.multiOn = 0, 0, false
	d.setBody(nil)
	hdrLen, n := binary.Uvarint(buf)
	if n <= 0 || uint64(len(buf)-n) < hdrLen {
		return errCorrupt
	}
	hdr := buf[n : n+int(hdrLen)]
	body := buf[n+int(hdrLen):]

	count, n := binary.Uvarint(hdr)
	if n <= 0 {
		return errCorrupt
	}
	hdr = hdr[n:]
	nSyms, n := binary.Uvarint(hdr)
	// Each table entry costs at least 2 header bytes (delta varint +
	// length byte), so larger claims are corrupt — and must not size the
	// scratch allocation.
	if n <= 0 || nSyms > uint64(len(hdr)-n)/2 {
		return errCorrupt
	}
	hdr = hdr[n:]

	if cap(d.parseSyms) < int(nSyms) {
		d.parseSyms = make([]int32, nSyms)
		d.parseLens = make([]uint8, nSyms)
	}
	d.parseSyms = d.parseSyms[:nSyms]
	d.parseLens = d.parseLens[:nSyms]
	prev := uint64(0)
	for i := range d.parseSyms {
		delta, n := binary.Uvarint(hdr)
		if n <= 0 || len(hdr) < n+1 {
			return errCorrupt
		}
		l := hdr[n]
		hdr = hdr[n+1:]
		// Symbols are delta-coded in strictly ascending order; a zero
		// delta after the first entry is a duplicate, and anything past
		// MaxSymbol cannot have been produced by the encoder. The bound is
		// checked before adding so a huge delta cannot wrap prev around
		// uint64 and slip an out-of-order table past the counting sort
		// below (which relies on ascending parse order).
		if i > 0 {
			if delta == 0 || delta > MaxSymbol-prev {
				return errCorrupt
			}
			prev += delta
		} else {
			if delta > MaxSymbol {
				return errCorrupt
			}
			prev = delta
		}
		if l < 1 || l > MaxCodeLen {
			return errCorrupt
		}
		d.parseSyms[i] = int32(prev)
		d.parseLens[i] = l
	}
	if count == 0 {
		return nil
	}
	if nSyms == 0 {
		return errCorrupt
	}
	// Every decoded symbol consumes at least one bit, so a count beyond
	// the body's bit length is corrupt — checked before any output
	// allocation so a hostile count cannot drive an OOM.
	if count > uint64(len(body))*8 {
		return errCorrupt
	}
	if err := d.buildTables(); err != nil {
		return err
	}
	d.count, d.remaining = int(count), int(count)
	if d.multiOn = d.multiPays(); d.multiOn {
		if d.multi == nil {
			d.multi = new(multiTable)
		}
		d.buildMulti()
	}
	d.setBody(body)
	return nil
}

// buildTables derives the canonical decode structures from the parsed
// (symbol, length) table: first-code arithmetic per length, symbols in
// canonical order, and the single-level fast table.
func (d *Decoder) buildTables() error {
	for i := range d.countLen {
		d.countLen[i] = 0
	}
	d.maxLen = 0
	for _, l := range d.parseLens {
		d.countLen[l]++
		if int(l) > d.maxLen {
			d.maxLen = int(l)
		}
	}
	// Kraft check and firstCode computation.
	code := uint32(0)
	idx := int32(0)
	kraft := uint64(0)
	for l := 1; l <= d.maxLen; l++ {
		d.firstCode[l] = code
		d.offset[l] = idx
		idx += d.countLen[l]
		kraft += uint64(d.countLen[l]) << uint(d.maxLen-l)
		code = (code + uint32(d.countLen[l])) << 1
	}
	if kraft > 1<<uint(d.maxLen) {
		return errCorrupt
	}
	// Canonical order: parse order is symbol-ascending, so a counting
	// sort by length is stable and canonical.
	if cap(d.syms) < len(d.parseSyms) {
		d.syms = make([]int32, len(d.parseSyms))
	}
	d.syms = d.syms[:len(d.parseSyms)]
	var starts [MaxCodeLen + 2]int32
	for l := 1; l <= d.maxLen; l++ {
		starts[l] = d.offset[l]
	}
	for i, s := range d.parseSyms {
		l := d.parseLens[i]
		d.syms[starts[l]] = s
		starts[l]++
	}
	// Fast table: every fill of the low bits below a short code maps to
	// that code. Prefix-freedom keeps the ranges disjoint.
	d.fast = [1 << fastBits]fastEntry{}
	for l := 1; l <= d.maxLen && l <= fastBits; l++ {
		shift := uint(fastBits - l)
		for j := int32(0); j < d.countLen[l]; j++ {
			c := d.firstCode[l] + uint32(j)
			sym := d.syms[d.offset[l]+j]
			base := c << shift
			for f := uint32(0); f < 1<<shift; f++ {
				d.fast[base|f] = fastEntry{sym: sym, len: int8(l)}
			}
		}
	}
	return nil
}

// multiPays reports, from the opened stream's header alone, whether the
// multi-code table earns its build. Under the distribution the code
// lengths imply (a code of length l is taken with probability 2^-l)
// it estimates the bits a code averages, counting a code the table
// cannot name (past the first shortCodes, or longer than multiBits) at
// multiBits, since an entry stops there. The table pays when a probe
// then averages at least multiMinPerProbe codes, and the stream holds
// at least multiMinCount codes to spread the build over.
func (d *Decoder) multiPays() bool {
	if d.count < multiMinCount {
		return false
	}
	var mass, bits uint64 // both scaled by 2^MaxCodeLen
	named := int32(shortCodes)
	for l := 1; l <= d.maxLen; l++ {
		w := uint64(d.countLen[l]) << (MaxCodeLen - l)
		mass += w
		short := uint64(0)
		if l <= multiBits {
			short = uint64(min(d.countLen[l], max(named, 0))) << (MaxCodeLen - l)
			named -= d.countLen[l]
		}
		bits += short*uint64(l) + (w-short)*multiBits
	}
	return bits*multiMinPerProbe <= mass*multiBits
}

// buildMulti fills the multi-code table in time proportional to it.
// Let T_m be the table of m-bit windows: T_m[r] names the whole short
// codes r begins with, up to multiCodes. Canonical codes, left-aligned,
// are contiguous from zero in canonical order, so T_m is, code by
// code, code j of length l followed by each entry of T_(m-l) (less its
// last code if it is full), then empty entries where no short code
// fits. Building T_1 ... T_multiBits in turn, into lower and then the
// table, reads and writes every entry once.
func (d *Decoder) buildMulti() {
	t := d.multi
	nShort := 0
	for l := 1; l <= min(d.maxLen, multiBits) && nShort < shortCodes; l++ {
		for end := min(nShort+int(d.countLen[l]), shortCodes); nShort < end; nShort++ {
			t.short[nShort], t.shortLen[nShort] = d.syms[nShort], uint8(l)
		}
	}
	lower := &t.lower // T_m at lower[1<<m:2<<m] for m < multiBits
	lower[1] = 0      // T_0: the empty entry
	for m := 1; m <= multiBits; m++ {
		dst := t.entries[:]
		if m < multiBits {
			dst = lower[1<<m : 2<<m]
		}
		r := 0
		for j := 0; j < nShort && int(t.shortLen[j]) <= m; j++ {
			l := uint64(t.shortLen[j])
			src := lower[1<<(m-int(l)) : 2<<(m-int(l))]
			out := dst[r : r+len(src)]
			for i, e := range src {
				// A full entry's last index is shifted out.
				meta := e&0xff + 1<<4 + l
				if e>>4&15 == multiCodes {
					meta -= 1<<4 + uint64(t.shortLen[e>>56])
				}
				out[i] = (e&^0xff|uint64(j))<<8 | meta
			}
			r += len(src)
		}
		clear(dst[r:])
	}
}

// Count returns the total number of symbols in the opened stream.
func (d *Decoder) Count() int { return d.count }

// MaxSym returns the largest symbol in the opened stream's code table,
// or -1 for an empty table: no decoded symbol exceeds it, so a caller
// with a smaller alphabet checks it once instead of every symbol.
func (d *Decoder) MaxSym() int32 {
	if len(d.parseSyms) == 0 {
		return -1
	}
	return d.parseSyms[len(d.parseSyms)-1] // the table is in ascending order
}

// DecodeInto decodes the next len(dst) symbols into dst. It fails
// where a bit-serial, symbol-at-a-time decoder would: dst holds the
// symbols before the failing one, the failing symbol counts as
// consumed, and a dst longer than what remains is decoded up to the
// declared count and then reported as reading past it. Nothing past
// len(dst) is written.
//
// It is kept out of line: inlined into another package, the call to
// the generic loop made every caller's dst escape to the heap.
//
//go:noinline
func (d *Decoder) DecodeInto(dst []int32) error {
	return decodeInto(d, dst)
}

func decodeInto[T int32 | byte](d *Decoder, dst []T) error {
	out := dst[:min(len(dst), d.remaining)]
	buf, pos, acc, nAcc := d.buf, d.pos, d.acc, d.nAcc
	fast, t := &d.fast, d.multi
	for i := 0; i < len(out); {
		var n int
		if d.multiOn {
			n, pos, acc, nAcc = multiRun(t, out[i:], buf, pos, acc, nAcc)
		} else {
			n, pos, acc, nAcc = fastRun(fast, out[i:], buf, pos, acc, nAcc)
		}
		if i += n; i == len(out) {
			break
		}
		// What the runs leave: a long code, dst's last codes, the body's
		// last bits. A multi-code entry is taken, as far as dst has room,
		// only if all its codes lie in real bits.
		if nAcc < multiBits {
			pos, acc, nAcc = refill(buf, pos, acc, nAcc)
		}
		if d.multiOn {
			if e := t.entries[acc>>(64-multiBits)]; e&15 != 0 && uint(e&15) <= nAcc {
				n, l := min(int(e>>4&15), len(out)-i), uint(0)
				for j, idx := i, e>>8; j < i+n; j, idx = j+1, idx>>8 {
					out[j] = T(t.short[uint8(idx)])
					l += uint(t.shortLen[uint8(idx)])
				}
				i += n
				acc <<= l
				nAcc -= l
				continue
			}
		}
		if e := fast[acc>>(64-fastBits)]; e.len > 0 && uint(e.len) <= nAcc {
			out[i] = T(e.sym)
			i++
			acc <<= uint(e.len)
			nAcc -= uint(e.len)
			continue
		}
		d.pos, d.acc, d.nAcc = pos, acc, nAcc
		s, err := d.slowNext()
		if err != nil {
			d.remaining -= i + 1
			return err
		}
		out[i] = T(s)
		i++
		pos, acc, nAcc = d.pos, d.acc, d.nAcc
	}
	d.pos, d.acc, d.nAcc = pos, acc, nAcc
	d.remaining -= len(out)
	if len(out) < len(dst) {
		return errExhausted
	}
	return nil
}

// fastRun decodes codes of up to fastBits bits through the fast table
// into out while buf holds a word past pos, and stops before a longer
// one or where out ends. It returns the symbols written and the window
// after them. A refill leaves 56 or more real bits in the window, so it
// serves fastGroup codes, and every code taken lies in real bits.
func fastRun[T int32 | byte](fast *[1 << fastBits]fastEntry, out []T, buf []byte, pos int, acc uint64, nAcc uint) (int, int, uint64, uint) {
	i := 0
	for pos+8 <= len(buf) && i+fastGroup <= len(out) {
		pos, acc, nAcc = refillWord(buf, pos, acc, nAcc)
		for end := i + fastGroup; i < end; i++ {
			e := fast[acc>>(64-fastBits)]
			if e.len == 0 {
				return i, pos, acc, nAcc
			}
			out[i] = T(e.sym)
			acc <<= uint(e.len) & 63
			nAcc -= uint(e.len)
		}
	}
	return i, pos, acc, nAcc
}

// multiRun decodes whole entries of t into out while out has room for
// a full one and buf a word past pos, and stops before an entry that
// names no code. It returns the symbols written and the window after
// them. A refill leaves 56 or more real bits in the window, enough for
// multiGroup entries, so every entry taken lies in real bits; while out
// has room for multiGroup, one refill serves that many probes, which
// keeps its load off their dependency chain.
func multiRun[T int32 | byte](t *multiTable, out []T, buf []byte, pos int, acc uint64, nAcc uint) (int, int, uint64, uint) {
	i, group := 0, multiGroup
	for pos+8 <= len(buf) && i+multiCodes <= len(out) {
		pos, acc, nAcc = refillWord(buf, pos, acc, nAcc)
		if i+group*multiCodes > len(out) {
			group = 1
		}
		for range group {
			e := t.entries[acc>>(64-multiBits)]
			if e&15 == 0 {
				return i, pos, acc, nAcc
			}
			o := out[i : i+multiCodes : i+multiCodes]
			o[0] = T(t.short[uint8(e>>8)])
			o[1] = T(t.short[uint8(e>>16)])
			o[2] = T(t.short[uint8(e>>24)])
			o[3] = T(t.short[uint8(e>>32)])
			o[4] = T(t.short[uint8(e>>40)])
			o[5] = T(t.short[uint8(e>>48)])
			o[6] = T(t.short[e>>56])
			i += int(e >> 4 & 15)
			acc <<= e & 15
			nAcc -= uint(e & 15)
		}
	}
	return i, pos, acc, nAcc
}

// refill tops a window up to at least 56 bits unless the body ends
// first: with 8 bytes left it ORs in a whole word and counts the whole
// bytes that fit, at the tail it loads a byte at a time. n must be < 64.
func refill(buf []byte, pos int, acc uint64, n uint) (int, uint64, uint) {
	if pos+8 <= len(buf) {
		return refillWord(buf, pos, acc, n)
	}
	for n <= 56 && pos < len(buf) {
		acc |= uint64(buf[pos]) << (56 - n)
		n += 8
		pos++
	}
	return pos, acc, n
}

// refillWord is refill's word step, for a buf with 8 bytes past pos.
// The shift is masked, as n < 64 makes it anyway, so that the compiler
// emits no check for a shift of 64 or more.
func refillWord(buf []byte, pos int, acc uint64, n uint) (int, uint64, uint) {
	acc |= binary.BigEndian.Uint64(buf[pos:]) >> (n & 63)
	k := (63 - n) >> 3
	return pos + int(k), acc, n + k<<3
}

// slowNext decodes the one symbol the fast loop could not: a code
// longer than fastBits, or one in the body's last bits. Lengths are
// tried shortest first against the canonical first-code arithmetic, as
// a bit-serial decoder would, so a truncated body overruns exactly
// where that decoder would.
func (d *Decoder) slowNext() (int32, error) {
	d.pos, d.acc, d.nAcc = refill(d.buf, d.pos, d.acc, d.nAcc)
	// Fewer than 56 bits now means the whole body is in the window, and
	// the probe reads zero padding past its end.
	if e := d.fast[d.acc>>(64-fastBits)]; e.len > 0 {
		return d.take(e.sym, uint(e.len))
	}
	for l := 1; l <= d.maxLen; l++ {
		if uint(l) > d.nAcc {
			return d.take(0, uint(l))
		}
		if d.countLen[l] == 0 {
			continue
		}
		code := uint32(d.acc >> (64 - l))
		if diff := int64(code) - int64(d.firstCode[l]); diff >= 0 && diff < int64(d.countLen[l]) {
			return d.take(d.syms[d.offset[l]+int32(diff)], uint(l))
		}
	}
	d.take(0, uint(d.maxLen))
	return 0, errCorrupt
}

// take consumes an l-bit code for sym. A code running past the body
// consumes the rest of it and fails, as a bit reader's overrun does.
func (d *Decoder) take(sym int32, l uint) (int32, error) {
	if l > d.nAcc {
		d.pos, d.acc, d.nAcc = len(d.buf), 0, 0
		return 0, bitstream.ErrOverrun
	}
	d.acc <<= l
	d.nAcc -= l
	return sym, nil
}

// Next decodes and returns one symbol.
func (d *Decoder) Next() (int32, error) {
	var s [1]int32
	err := d.DecodeInto(s[:])
	return s[0], err
}

// DecodeAll appends every remaining symbol to dst and returns the
// extended slice; on error it holds the symbols before the failing one.
func (d *Decoder) DecodeAll(dst []int32) ([]int32, error) {
	return decodeAll(d, dst)
}

// DecodeAllBytes is DecodeAll into bytes — the LZH token path. A stream
// whose table names a symbol past 255 is corrupt, and is rejected before
// a token is decoded.
func (d *Decoder) DecodeAllBytes(dst []byte) ([]byte, error) {
	if d.MaxSym() > 255 {
		return dst, fmt.Errorf("%w: token %d out of byte range", errCorrupt, d.MaxSym())
	}
	return decodeAll(d, dst)
}

func decodeAll[T int32 | byte](d *Decoder, dst []T) ([]T, error) {
	k, before := len(dst), d.remaining
	dst = slices.Grow(dst, before)[:k+before]
	if err := decodeInto(d, dst[k:]); err != nil {
		return dst[:k+before-d.remaining-1], err
	}
	return dst, nil
}
