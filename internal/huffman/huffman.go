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
// # Streaming API and pooling contract
//
// The hot paths are allocation-free. AppendEncode and AppendEncodeBytes
// append a self-describing stream directly to a caller-supplied buffer;
// all encoder scratch (frequency tables, tree nodes, code tables, the
// bit writer) is recycled through an internal sync.Pool. On the decode
// side, AcquireDecoder returns a pooled streaming Decoder: Open parses
// a stream's header, Count reports the number of encoded symbols, and
// Next (symbol at a time) or DecodeAll/DecodeAllBytes (bulk, appending
// into a caller buffer) consume the body — so a consumer that folds
// symbols into its own reconstruction loop never materializes a code
// array at all. Call Release to return a Decoder to the pool; a
// released Decoder keeps no reference to the stream it decoded. The
// legacy Encode/Decode convenience wrappers remain for callers that
// want freshly allocated slices.
//
// Symbols must fit in an int32; Encode reports an error for symbols
// outside [0, MaxSymbol].
package huffman

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"

	"fedsz/internal/bitstream"
)

// MaxCodeLen is the maximum admitted code length. Frequencies are
// flattened until the implied tree fits.
const MaxCodeLen = 30

// MaxSymbol is the largest encodable symbol value.
const MaxSymbol = 1<<31 - 1

// fastBits is the width of the single-level fast decode table.
const fastBits = 10

var (
	errCorrupt   = errors.New("huffman: corrupt stream")
	errExhausted = errors.New("huffman: read past declared symbol count")
)

// denseLimit caps the alphabet span for which dense (slice-indexed)
// frequency counting and code lookup are used on the encode hot path.
const denseLimit = 1 << 20

type symCode struct {
	code uint32
	len  uint8
}

type symFreq struct {
	sym  int32
	freq int64
}

// encoder holds all encode-side scratch, recycled through encoderPool:
// the encode path runs once per tensor per round in the FedSZ pipeline
// and is fanned across goroutines, which is exactly the per-P caching
// sync.Pool provides.
type encoder struct {
	freqs []int64   // dense symbol counts (cleared after use)
	pairs []symFreq // present symbols, ascending
	tmp   []int64   // flattened frequencies during length limiting
	lens  []uint8   // code length per pair
	ord   []int32   // pair indices in canonical (length, symbol) order
	cnt   [MaxCodeLen + 2]int32
	nodes []hNode // tree arena (pre-sized: pointers must not move)
	heap  hHeap   // scratch for huffmanLengths
	dense []symCode
	hdr   []byte
	bw    bitstream.Writer
}

var encoderPool = sync.Pool{
	New: func() interface{} { return new(encoder) },
}

// Encode Huffman-encodes symbols (all must be in [0, MaxSymbol]) and
// returns a self-describing buffer containing the code table and the
// bit stream. Callers on a hot path should prefer AppendEncode.
func Encode(symbols []int) ([]byte, error) {
	for _, s := range symbols {
		if s < 0 || s > MaxSymbol {
			return nil, fmt.Errorf("huffman: symbol %d out of range", s)
		}
	}
	s32 := make([]int32, len(symbols))
	for i, s := range symbols {
		s32[i] = int32(s)
	}
	return AppendEncode(make([]byte, 0, len(symbols)/4+64), s32)
}

// AppendEncode appends the Huffman encoding of symbols (all must be
// >= 0) to dst and returns the extended buffer. The output bytes are
// identical to Encode's; dst may be nil.
func AppendEncode(dst []byte, symbols []int32) ([]byte, error) {
	e := encoderPool.Get().(*encoder)
	defer e.release()
	maxSym := int32(0)
	for _, s := range symbols {
		if s < 0 {
			return nil, fmt.Errorf("huffman: negative symbol %d", s)
		}
		if s > maxSym {
			maxSym = s
		}
	}
	if int(maxSym) < denseLimit {
		e.countDense(symbols, int(maxSym))
	} else {
		e.countSparse(symbols)
	}
	return e.encode(dst, len(symbols), func(lookup []symCode, sparse map[int32]symCode) {
		if sparse == nil {
			for _, s := range symbols {
				c := lookup[s]
				e.bw.WriteBits(uint64(c.code), uint(c.len))
			}
			return
		}
		for _, s := range symbols {
			c := sparse[s]
			e.bw.WriteBits(uint64(c.code), uint(c.len))
		}
	})
}

// AppendEncodeBytes appends the Huffman encoding of a byte-alphabet
// token stream to dst — the LZH codecs' entropy stage. The wire format
// is identical to AppendEncode over the widened tokens.
func AppendEncodeBytes(dst []byte, tokens []byte) []byte {
	e := encoderPool.Get().(*encoder)
	defer e.release()
	maxSym := 0
	e.growFreqs(256)
	for _, t := range tokens {
		e.freqs[t]++
		if int(t) > maxSym {
			maxSym = int(t)
		}
	}
	e.extractPairs(maxSym)
	out, _ := e.encode(dst, len(tokens), func(lookup []symCode, _ map[int32]symCode) {
		for _, t := range tokens {
			c := lookup[t]
			e.bw.WriteBits(uint64(c.code), uint(c.len))
		}
	})
	return out
}

func (e *encoder) release() {
	// Drop references to caller-owned memory; keep the scratch.
	e.bw.ResetBuf(nil)
	encoderPool.Put(e)
}

func (e *encoder) growFreqs(n int) {
	if cap(e.freqs) < n {
		e.freqs = make([]int64, n)
	}
	e.freqs = e.freqs[:n]
}

// countDense histograms symbols through the dense table and extracts
// the present (symbol, frequency) pairs in ascending symbol order.
func (e *encoder) countDense(symbols []int32, maxSym int) {
	e.growFreqs(maxSym + 1)
	for _, s := range symbols {
		e.freqs[s]++
	}
	e.extractPairs(maxSym)
}

func (e *encoder) extractPairs(maxSym int) {
	e.pairs = e.pairs[:0]
	for s := 0; s <= maxSym && s < len(e.freqs); s++ {
		if c := e.freqs[s]; c > 0 {
			e.pairs = append(e.pairs, symFreq{sym: int32(s), freq: c})
			e.freqs[s] = 0 // leave the table clear for the next use
		}
	}
}

// countSparse handles alphabets too wide for the dense table.
func (e *encoder) countSparse(symbols []int32) {
	freq := make(map[int32]int64, 256)
	for _, s := range symbols {
		freq[s]++
	}
	e.pairs = e.pairs[:0]
	for s, c := range freq {
		e.pairs = append(e.pairs, symFreq{sym: s, freq: c})
	}
	sortPairs(e.pairs)
}

// encode runs the shared table-build + serialization once e.pairs is
// populated, invoking emit to stream the symbol bodies through e.bw.
func (e *encoder) encode(dst []byte, count int, emit func(lookup []symCode, sparse map[int32]symCode)) ([]byte, error) {
	e.buildLengths()
	e.canonicalOrder()

	// Header: symbol count, table size, (symbol-delta, length) pairs
	// sorted by symbol.
	hdr := e.hdr[:0]
	hdr = binary.AppendUvarint(hdr, uint64(count))
	hdr = binary.AppendUvarint(hdr, uint64(len(e.pairs)))
	prev := int32(0)
	for i, p := range e.pairs {
		hdr = binary.AppendUvarint(hdr, uint64(p.sym-prev))
		hdr = append(hdr, e.lens[i])
		prev = p.sym
	}
	e.hdr = hdr

	// Code assignment in canonical order, materialized as a dense
	// lookup table (or a map for very wide alphabets).
	var lookup []symCode
	var sparse map[int32]symCode
	if n := len(e.pairs); n > 0 {
		if top := int(e.pairs[n-1].sym); top < denseLimit {
			if cap(e.dense) < top+1 {
				e.dense = make([]symCode, top+1)
			}
			lookup = e.dense[:top+1]
		} else {
			sparse = make(map[int32]symCode, n)
		}
	}
	code := uint32(0)
	prevLen := uint8(0)
	for _, idx := range e.ord {
		l := e.lens[idx]
		code <<= uint(l - prevLen)
		if sparse != nil {
			sparse[e.pairs[idx].sym] = symCode{code: code, len: l}
		} else {
			lookup[e.pairs[idx].sym] = symCode{code: code, len: l}
		}
		code++
		prevLen = l
	}

	dst = binary.AppendUvarint(dst, uint64(len(e.hdr)))
	dst = append(dst, e.hdr...)
	e.bw.ResetBuf(dst)
	emit(lookup, sparse)
	return e.bw.Bytes(), nil
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

type hNode struct {
	freq  int64
	sym   int32 // min leaf symbol under this node (tie-break)
	idx   int32 // pair index for leaves, -1 for internal nodes
	depth int32 // tie-break for deterministic trees
	left  *hNode
	right *hNode
}

// hHeap is a binary min-heap of tree nodes ordered by (freq, depth,
// sym). Live nodes cover disjoint leaf sets, so their min symbols differ
// and the order is strict and total: the sequence of minima — and with
// it the tree and every code length — is the same for any correct heap.
// It is written out here, not left to container/heap, because a table
// is built per tensor per frame and the interface calls were a tenth of
// an encode.
type hHeap []*hNode

func (a *hNode) less(b *hNode) bool {
	if a.freq != b.freq {
		return a.freq < b.freq
	}
	if a.depth != b.depth {
		return a.depth < b.depth
	}
	return a.sym < b.sym
}

// down sifts h[i] towards the leaves of the first n elements.
func (h hHeap) down(i, n int) {
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

func (h hHeap) init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i, len(h))
	}
}

func (h *hHeap) push(nd *hNode) {
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

func (h *hHeap) pop() *hNode {
	old := *h
	n := len(old) - 1
	min := old[0]
	old[0] = old[n]
	*h = old[:n]
	(*h).down(0, n)
	return min
}

// huffmanLengths builds one Huffman tree over (e.pairs, e.tmp) and
// writes leaf depths into e.lens, returning the maximum depth. Nodes
// live in the pre-sized e.nodes arena, so a whole table build costs no
// per-node allocations.
func (e *encoder) huffmanLengths() int {
	n := len(e.pairs)
	need := 2*n - 1
	if cap(e.nodes) < need {
		e.nodes = make([]hNode, 0, need)
	}
	e.nodes = e.nodes[:0] // arena never reallocates below: cap >= need
	alloc := func(nd hNode) *hNode {
		e.nodes = append(e.nodes, nd)
		return &e.nodes[len(e.nodes)-1]
	}
	if cap(e.heap) < n {
		e.heap = make(hHeap, 0, n)
	}
	h := e.heap[:0]
	for i, p := range e.pairs {
		h = append(h, alloc(hNode{freq: e.tmp[i], sym: p.sym, idx: int32(i)}))
	}
	h.init()
	for len(h) > 1 {
		a := h.pop()
		b := h.pop()
		d := a.depth
		if b.depth > d {
			d = b.depth
		}
		sym := a.sym
		if b.sym < sym {
			sym = b.sym
		}
		h.push(alloc(hNode{
			freq:  a.freq + b.freq,
			depth: d + 1,
			sym:   sym,
			idx:   -1,
			left:  a,
			right: b,
		}))
	}
	root := h[0]
	e.heap = h[:0]
	maxLen := 0
	var walk func(nd *hNode, depth int)
	walk = func(nd *hNode, depth int) {
		if nd.left == nil {
			if depth == 0 {
				depth = 1
			}
			e.lens[nd.idx] = uint8(depth)
			if depth > maxLen {
				maxLen = depth
			}
			return
		}
		walk(nd.left, depth+1)
		walk(nd.right, depth+1)
	}
	walk(root, 0)
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

func sortPairs(pairs []symFreq) {
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].sym < pairs[j].sym })
}

// Decoder is a streaming canonical Huffman decoder: Open parses a
// stream produced by Encode/AppendEncode, then Next or DecodeAll
// consume the body without materializing intermediate code arrays.
// Decoders are not safe for concurrent use; acquire one per goroutine.
type Decoder struct {
	br        bitstream.Reader
	count     int // total symbols in the stream
	remaining int
	maxLen    int
	firstCode [MaxCodeLen + 2]uint32 // first canonical code of each length
	offset    [MaxCodeLen + 2]int32  // index of first symbol of each length in syms
	countLen  [MaxCodeLen + 2]int32
	syms      []int32 // symbols in canonical order
	fast      []fastEntry
	parseSyms []int32 // header parse scratch (symbol order)
	parseLens []uint8
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
	d.br.Reset(nil)
	decoderPool.Put(d)
}

// Open parses the stream header and prepares the decode tables. It
// retains buf (without copying) until the next Open or Release.
func (d *Decoder) Open(buf []byte) error {
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
		// MaxSymbol cannot have been produced by Encode. The bound is
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
	d.count = int(count)
	d.remaining = d.count
	if count == 0 {
		d.br.Reset(nil)
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
	d.br.Reset(body)
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
	if d.fast == nil {
		d.fast = make([]fastEntry, 1<<fastBits)
	} else {
		for i := range d.fast {
			d.fast[i] = fastEntry{}
		}
	}
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

// Count returns the total number of symbols in the opened stream.
func (d *Decoder) Count() int { return d.count }

// Next decodes and returns one symbol.
func (d *Decoder) Next() (int32, error) {
	if d.remaining <= 0 {
		return 0, errExhausted
	}
	d.remaining--
	// Fast path: probe the single-level table with the next fastBits
	// bits. Peek zero-pads past the end of the stream; Skip rejects a
	// match that would consume more bits than remain.
	e := d.fast[d.br.Peek(fastBits)]
	if e.len > 0 {
		if err := d.br.Skip(uint(e.len)); err != nil {
			return 0, err
		}
		return e.sym, nil
	}
	return d.nextSlow()
}

// nextSlow reads bit-by-bit and matches against canonical first-code
// arithmetic — the path for codes longer than fastBits.
func (d *Decoder) nextSlow() (int32, error) {
	code := uint32(0)
	for l := 1; l <= d.maxLen; l++ {
		b, err := d.br.ReadBit()
		if err != nil {
			return 0, err
		}
		code = code<<1 | uint32(b)
		if d.countLen[l] == 0 {
			continue
		}
		if diff := int64(code) - int64(d.firstCode[l]); diff >= 0 && diff < int64(d.countLen[l]) {
			return d.syms[d.offset[l]+int32(diff)], nil
		}
	}
	return 0, errCorrupt
}

// DecodeAll appends every remaining symbol to dst and returns the
// extended slice.
func (d *Decoder) DecodeAll(dst []int32) ([]int32, error) {
	for d.remaining > 0 {
		s, err := d.Next()
		if err != nil {
			return dst, err
		}
		dst = append(dst, s)
	}
	return dst, nil
}

// DecodeAllBytes appends every remaining symbol to dst as bytes,
// rejecting symbols outside the byte alphabet — the LZH token path.
func (d *Decoder) DecodeAllBytes(dst []byte) ([]byte, error) {
	for d.remaining > 0 {
		s, err := d.Next()
		if err != nil {
			return dst, err
		}
		if s > 255 {
			return dst, fmt.Errorf("%w: token %d out of byte range", errCorrupt, s)
		}
		dst = append(dst, byte(s))
	}
	return dst, nil
}

// Decode reverses Encode, returning a freshly allocated symbol slice.
// Callers on a hot path should prefer the streaming Decoder.
func Decode(buf []byte) ([]int, error) {
	d := AcquireDecoder()
	defer d.Release()
	if err := d.Open(buf); err != nil {
		return nil, err
	}
	if d.count == 0 {
		return nil, nil
	}
	out := make([]int, d.count)
	for i := range out {
		s, err := d.Next()
		if err != nil {
			return nil, err
		}
		out[i] = int(s)
	}
	return out, nil
}
