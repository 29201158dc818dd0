package lossless

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"
)

// lzMinMatch is the minimum match length encoded by the LZ token
// stream shared by blosclz and the LZH codecs.
const lzMinMatch = 4

// lzParams tunes the LZ match finder.
type lzParams struct {
	window   int  // maximum match distance
	hashBits uint // hash table size = 1<<hashBits
	maxDist  int  // hard cap implied by the distance encoding
	dist3    bool // 3-byte distances (large windows) vs 2-byte
	depth    int  // hash-chain search depth (1 = single probe)
	lazy     bool // one-step-lazy matching
	noAccel  bool // disable LZ4-style skip acceleration (exhaustive scan)
	accelCap int  // max skip stride (0 = unbounded)
}

// lzScratch holds the match-finder tables, recycled across calls. The
// tables store position+base, and each call advances base past every
// entry it could have written, so whatever an earlier call left in them
// (at any profile's hash width) reads below base, as empty: the head
// table, 256 KiB at the LZH profiles' 16 hash bits, is cleared only
// when base would overflow int32, not once per section.
type lzScratch struct {
	head  []int32
	chain []int32
	base  int // stored values below base are empty
}

var lzScratchPool = sync.Pool{
	New: func() interface{} { return new(lzScratch) },
}

// lzCompress appends the token stream for src to dst.
//
// Token format:
//
//	0x00..0x7F            literal run of (ctrl+1) bytes
//	0x80|L, [uvarint], D  match of length lzMinMatch+L (L==0x7F adds the
//	                      uvarint extension), distance D+1 as 2- or
//	                      3-byte little-endian
func lzCompress(dst, src []byte, p lzParams) []byte {
	sc := lzScratchPool.Get().(*lzScratch)
	defer lzScratchPool.Put(sc)
	return sc.compress(dst, src, p)
}

// compress is lzCompress on sc's tables.
func (sc *lzScratch) compress(dst, src []byte, p lzParams) []byte {
	n := len(src)
	if n < lzMinMatch {
		return appendLiterals(dst, src)
	}
	if p.window > p.maxDist {
		p.window = p.maxDist
	}
	if size := 1 << p.hashBits; len(sc.head) < size {
		sc.head = make([]int32, size)
		sc.base = 1 // a zeroed entry must read as empty
	}
	if n >= math.MaxInt32-sc.base { // the next base, base+n+1, must fit int32
		clear(sc.head)
		sc.base = 1
	}
	base := sc.base
	sc.base += n + 1
	head := sc.head[:1<<p.hashBits]
	var chain []int32
	if p.depth > 1 {
		// Stale entries from a previous run are unreachable: find only
		// follows chain links from positions inserted this call, and
		// insert writes chain[i] before publishing i via head.
		// A quarter of headroom: sections of one shape differ by a few
		// bytes between updates, and an exact fit would be reallocated
		// for each slightly longer one.
		if cap(sc.chain) < n {
			sc.chain = make([]int32, n, n+n/4)
		}
		chain = sc.chain[:n]
	}
	lastInserted := -1
	insert := func(i int) {
		if i <= lastInserted {
			return
		}
		lastInserted = i
		h := lzHash(src[i:], p.hashBits)
		if chain != nil {
			chain[i] = head[h]
		}
		head[h] = int32(i + base)
	}
	find := func(i int) (mlen, dist int) {
		limit := n
		cand := int(head[lzHash(src[i:], p.hashBits)]) - base
		for probes := 0; cand >= 0 && probes < p.depth; probes++ {
			d := i - cand
			if d > p.window || d <= 0 {
				break
			}
			l := matchLen(src, cand, i, limit)
			if l > mlen {
				mlen, dist = l, d
			}
			if chain == nil {
				break
			}
			cand = int(chain[cand]) - base
		}
		if mlen < lzMinMatch {
			return 0, 0
		}
		return mlen, dist
	}

	litStart := 0
	i := 0
	misses := 0 // consecutive failed probes drive LZ4-style skip acceleration
	for i+lzMinMatch <= n {
		mlen, dist := find(i)
		if mlen == 0 {
			insert(i)
			i++
			if !p.noAccel {
				// LZ4-style acceleration, capped so a long incompressible
				// region cannot make the scanner leap over a compressible
				// one (e.g. the exponent plane after a byte shuffle).
				step := misses >> 6
				if p.accelCap > 0 && step > p.accelCap {
					step = p.accelCap
				}
				i += step
				misses++
			}
			continue
		}
		misses = 0
		if p.lazy && i+1+lzMinMatch <= n {
			insert(i)
			if mlen2, dist2 := find(i + 1); mlen2 > mlen+1 {
				i++
				mlen, dist = mlen2, dist2
			}
		}
		dst = appendLiterals(dst, src[litStart:i])
		dst = appendMatch(dst, mlen, dist, p.dist3)
		matchEnd := i + mlen
		// Index the positions covered by the match so later data can
		// reference into it (insert deduplicates).
		insertEnd := matchEnd
		if insertEnd > n-lzMinMatch+1 {
			insertEnd = n - lzMinMatch + 1
		}
		for j := i; j < insertEnd; j++ {
			insert(j)
		}
		i = matchEnd
		litStart = i
	}
	dst = appendLiterals(dst, src[litStart:])
	return dst
}

func appendLiterals(dst, lits []byte) []byte {
	for len(lits) > 0 {
		run := len(lits)
		if run > 128 {
			run = 128
		}
		dst = append(dst, byte(run-1))
		dst = append(dst, lits[:run]...)
		lits = lits[run:]
	}
	return dst
}

func appendMatch(dst []byte, mlen, dist int, dist3 bool) []byte {
	l := mlen - lzMinMatch
	if l < 0x7F {
		dst = append(dst, 0x80|byte(l))
	} else {
		dst = append(dst, 0xFF)
		dst = binary.AppendUvarint(dst, uint64(l-0x7F))
	}
	d := dist - 1
	dst = append(dst, byte(d), byte(d>>8))
	if dist3 {
		dst = append(dst, byte(d>>16))
	}
	return dst
}

// lzDecompress appends the decoding of a token stream — exactly
// origLen bytes — to dst (which may be nil). Matches may only
// reference bytes produced by this call, never dst's existing prefix.
func lzDecompress(dst, src []byte, origLen int, dist3 bool) ([]byte, error) {
	if origLen < 0 {
		return nil, fmt.Errorf("%w: negative length", ErrCorrupt)
	}
	// origLen comes from an untrusted header: cap the preallocation and
	// let append grow toward genuinely large outputs instead of letting
	// a hostile length drive an OOM up front.
	if dst == nil {
		capHint := origLen
		if capHint > 1<<20 {
			capHint = 1 << 20
		}
		dst = make([]byte, 0, capHint)
	}
	out := dst
	base := len(out)
	pos := 0
	for pos < len(src) {
		ctrl := src[pos]
		pos++
		if ctrl < 0x80 {
			run := int(ctrl) + 1
			if pos+run > len(src) {
				return nil, fmt.Errorf("%w: literal run overruns input", ErrCorrupt)
			}
			if run > origLen-(len(out)-base) {
				return nil, fmt.Errorf("%w: literal run overruns output", ErrCorrupt)
			}
			out = append(out, src[pos:pos+run]...)
			pos += run
			continue
		}
		l := int(ctrl & 0x7F)
		mlen := lzMinMatch + l
		if l == 0x7F {
			extra, n := binary.Uvarint(src[pos:])
			if n <= 0 {
				return nil, fmt.Errorf("%w: match length extension", ErrCorrupt)
			}
			mlen += int(extra)
			pos += n
		}
		// A match can never produce more bytes than the declared output
		// has left; a hostile extension would otherwise copy unbounded.
		if mlen < 0 || mlen > origLen-(len(out)-base) {
			return nil, fmt.Errorf("%w: match length %d overruns output", ErrCorrupt, mlen)
		}
		dBytes := 2
		if dist3 {
			dBytes = 3
		}
		if pos+dBytes > len(src) {
			return nil, fmt.Errorf("%w: match distance overruns input", ErrCorrupt)
		}
		dist := int(src[pos]) | int(src[pos+1])<<8
		if dist3 {
			dist |= int(src[pos+2]) << 16
		}
		dist++
		pos += dBytes
		start := len(out) - dist
		if start < base {
			return nil, fmt.Errorf("%w: match distance %d before start", ErrCorrupt, dist)
		}
		for k := 0; k < mlen; k++ { // byte-wise copy handles overlap
			out = append(out, out[start+k])
		}
	}
	if len(out)-base != origLen {
		return nil, fmt.Errorf("%w: decoded %d bytes, want %d", ErrCorrupt, len(out)-base, origLen)
	}
	return out, nil
}

func lzHash(b []byte, bits uint) uint32 {
	v := binary.LittleEndian.Uint32(b)
	return (v * 2654435761) >> (32 - bits)
}

func matchLen(src []byte, a, b, limit int) int {
	l := 0
	for b+l < limit && src[a+l] == src[b+l] {
		l++
	}
	return l
}
