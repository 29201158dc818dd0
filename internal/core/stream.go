package core

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"fedsz/internal/lossless"
	"fedsz/internal/lossy"
	"fedsz/internal/model"
	"fedsz/internal/tensor"
)

// This file implements the streaming halves of the frame format: a
// section writer that emits the FedSZ frame incrementally to an
// io.Writer (header first, then each lossy section as its tensor
// finishes compressing, then the lossless section) and a section
// reader that consumes it from an io.Reader with bounded allocation.
// The whole-buffer Compress/Decompress entry points in fedsz.go run
// this writer into a bytes.Buffer and this reader over a bytes.Reader,
// so there is one encoder and one decoder per format.

// Read limits. A reader cannot validate a declared count against bytes
// that have not arrived yet, so every input, a whole buffer included,
// is held to absolute caps. They are far above any real model update
// while keeping the allocation a forged header can force small.
const (
	// maxStreamEntries caps entry and lossy-tensor counts (a 2M-entry
	// state dict is ~3 orders beyond ResNet50's 320 entries).
	maxStreamEntries = 1 << 21
	// maxStreamSection caps one section payload (1 GiB, matching the
	// transport's MaxFrameSize).
	maxStreamSection = 1 << 30
	// maxStreamString caps name fields, so that one fits the reader's scratch.
	maxStreamString = WireChunk
	// maxStreamDims caps a declared tensor rank.
	maxStreamDims = 16
	// maxStreamElems caps a declared tensor shape: each dimension and
	// the running product (2^28 elements = 1 GiB of float32, matching
	// maxStreamSection). Checking the product as it accumulates keeps
	// int overflow from wrapping a forged shape back into plausible
	// range — tensor.FromData would recompute the same wrapped product
	// and wave it through.
	maxStreamElems = maxStreamSection / 4
)

// crcTable is the CRC32C (Castagnoli) table shared by the checked
// frame writer and the frame reader. Castagnoli over IEEE for its
// better burst-error detection and hardware support.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// frameWriter emits the FedSZ frame section by section. Field bytes
// are staged in a scratch buffer and flushed per section; payloads are
// written through directly. The first write error sticks and turns
// subsequent calls into no-ops, so callers check err once at the end.
//
// With checked set (before the first call), the writer emits the
// integrity-checked frame version: every byte after the magic+version
// prefix folds into a running CRC32C, and a 4-byte big-endian trailer
// closes the header and each section. The streaming encoder stays
// single-pass — the checksum accumulates as bytes go out.
type frameWriter struct {
	w       io.Writer
	tmp     []byte
	err     error
	checked bool
	crc     uint32
}

func newFrameWriter(w io.Writer) *frameWriter { return &frameWriter{w: w} }

func (fw *frameWriter) write(p []byte) {
	if fw.err != nil {
		return
	}
	if _, err := fw.w.Write(p); err != nil {
		fw.err = fmt.Errorf("core: write frame: %w", err)
	}
}

// sum folds p into the running section checksum (checked frames only).
func (fw *frameWriter) sum(p []byte) {
	if fw.checked {
		fw.crc = crc32.Update(fw.crc, crcTable, p)
	}
}

func (fw *frameWriter) flushTmp() {
	fw.sum(fw.tmp)
	fw.write(fw.tmp)
	fw.tmp = fw.tmp[:0]
}

// emitCRC closes one checksummed region: it writes the accumulated
// CRC32C as a big-endian trailer and resets the accumulator for the
// next region. A no-op on legacy frames.
func (fw *frameWriter) emitCRC() {
	if !fw.checked {
		return
	}
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], fw.crc)
	fw.write(b[:])
	fw.crc = 0
}

// header writes everything up to and including the lossy-section entry
// count; all of it is known before any tensor finishes compressing, so
// the streaming encoder emits it immediately.
func (fw *frameWriter) header(lossyName, losslessName string, threshold, nEntries int, tags []bool, nLossy int) {
	version := byte(formatVersion)
	if fw.checked {
		version = formatVersionChecked
	}
	// The magic+version prefix stays outside the checksum: a decoder
	// must read it to learn whether a checksum exists at all.
	fw.tmp = append(fw.tmp[:0], pipelineMagic...)
	fw.tmp = append(fw.tmp, version)
	fw.write(fw.tmp)
	fw.tmp = fw.tmp[:0]
	fw.tmp = appendString(fw.tmp, lossyName)
	fw.tmp = appendString(fw.tmp, losslessName)
	fw.tmp = binary.AppendUvarint(fw.tmp, uint64(threshold))
	fw.tmp = binary.AppendUvarint(fw.tmp, uint64(nEntries))
	fw.tmp = appendPackedBools(fw.tmp, tags)
	fw.tmp = binary.AppendUvarint(fw.tmp, uint64(nLossy))
	fw.flushTmp()
	fw.emitCRC()
}

// lossySection writes one framed tensor: name, shape, payload.
func (fw *frameWriter) lossySection(name string, shape []int, payload []byte) {
	fw.tmp = appendString(fw.tmp[:0], name)
	fw.tmp = binary.AppendUvarint(fw.tmp, uint64(len(shape)))
	for _, d := range shape {
		fw.tmp = binary.AppendUvarint(fw.tmp, uint64(d))
	}
	fw.tmp = binary.AppendUvarint(fw.tmp, uint64(len(payload)))
	fw.flushTmp()
	fw.sum(payload)
	fw.write(payload)
	fw.emitCRC()
}

// metaSection writes the lossless metadata section that closes the
// frame.
func (fw *frameWriter) metaSection(payload []byte) {
	fw.tmp = binary.AppendUvarint(fw.tmp[:0], uint64(len(payload)))
	fw.flushTmp()
	fw.sum(payload)
	fw.write(payload)
	fw.emitCRC()
}

// countingWriter counts bytes on their way to w (the streaming
// encoder's CompressedBytes accounting).
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// partition implements Algorithm 1 lines 2-9, splitting sd into the
// lossy-path tensors and the lossless metadata dict and accounting the
// input sizes into st.
func (p *Pipeline) partition(sd *model.StateDict, st *Stats) (tags []bool, lossyEntries []model.Entry, meta *model.StateDict, err error) {
	entries := sd.Entries()
	tags = make([]bool, len(entries))
	meta = model.NewStateDict()
	for i, e := range entries {
		st.TotalElems += int64(e.NumElements())
		if p.shouldLossy(e) {
			tags[i] = true
			lossyEntries = append(lossyEntries, e)
			st.LossyElems += int64(e.NumElements())
			st.LossyInBytes += int64(e.SizeBytes())
			continue
		}
		if err := meta.Add(e); err != nil {
			return nil, nil, nil, fmt.Errorf("core: partition: %w", err)
		}
		st.MetaInBytes += int64(e.SizeBytes())
	}
	st.NumLossyTensors = len(lossyEntries)
	st.NumMetaEntries = meta.Len()
	st.OriginalBytes = st.LossyInBytes + st.MetaInBytes
	return tags, lossyEntries, meta, nil
}

// compressEntry compresses one lossy-path tensor through the
// configured compressor.
func (p *Pipeline) compressEntry(e model.Entry) ([]byte, error) {
	data := e.Tensor.Data()
	fm := metricsForFamily(p.cfg.Lossy)
	encStart := time.Now()
	comp, err := p.lossyC.Compress(data, p.cfg.Bound)
	if err != nil {
		return nil, err
	}
	fm.encNs.Add(time.Since(encStart).Nanoseconds())
	fm.encIn.Add(int64(len(data)) * 4)
	fm.encOut.Add(int64(len(comp)))
	fm.encSections.Inc()
	if len(comp) > 0 {
		fm.encRatio.Observe(float64(len(data)) * 4 / float64(len(comp)))
	}
	return comp, nil
}

// compressMeta serializes and losslessly compresses the metadata dict.
func (p *Pipeline) compressMeta(meta *model.StateDict) ([]byte, error) {
	blob, err := MarshalStateDict(meta)
	if err != nil {
		return nil, err
	}
	// Metadata is mostly float32 statistics the lossless stage barely
	// shrinks, so the output is sized at the input: a codec's own guess
	// (half the input) regrows by append several times over.
	mc, err := p.lossless.AppendCompress(make([]byte, 0, len(blob)+len(blob)/64+64), blob)
	if err != nil {
		return nil, fmt.Errorf("core: lossless compress metadata: %w", err)
	}
	return mc, nil
}

// CompressTo encodes sd as a FedSZ frame streamed to w: the header is
// written immediately, and each tensor's section follows as soon as
// that tensor finishes compressing, so on a network writer compression
// time hides behind transmission time (the paper's tC behind tT).
// Per-tensor compression fans across cfg.Parallelism workers; sections
// are still written in deterministic entry order, so the bytes are the
// same at every parallelism. The caller must not mutate sd while the
// call is in flight.
func (p *Pipeline) CompressTo(w io.Writer, sd *model.StateDict) (Stats, error) {
	start := time.Now()
	var st Stats
	tags, lossyEntries, meta, err := p.partition(sd, &st)
	if err != nil {
		return st, err
	}

	// One task per lossy tensor plus the independent metadata pass.
	// Each task reports on its own buffered channel, so the writer
	// below can await them in entry order while later tensors are
	// still compressing — and an abandoned task never blocks.
	nTasks := len(lossyEntries) + 1
	comps := make([][]byte, len(lossyEntries))
	var metaComp []byte
	done := make([]chan error, nTasks)
	for i := range done {
		done[i] = make(chan error, 1)
	}
	task := func(i int) error {
		if i < len(lossyEntries) {
			e := lossyEntries[i]
			comp, err := p.compressEntry(e)
			if err != nil {
				return fmt.Errorf("core: lossy compress %q: %w", e.Name, err)
			}
			comps[i] = comp
			return nil
		}
		mc, err := p.compressMeta(meta)
		if err != nil {
			return err
		}
		metaComp = mc
		return nil
	}
	workers := p.cfg.Parallelism
	if workers > nTasks {
		workers = nTasks
	}
	if workers < 1 {
		workers = 1
	}
	var next atomic.Int64
	var abort atomic.Bool
	var wg sync.WaitGroup
	wg.Add(workers)
	for g := 0; g < workers; g++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= nTasks || abort.Load() {
					return
				}
				done[i] <- task(i)
			}
		}()
	}

	// fail stops the workers claiming tasks and waits out the ones in
	// flight, so that no worker reads sd once the call has returned.
	fail := func(err error) (Stats, error) {
		abort.Store(true)
		wg.Wait()
		return st, err
	}

	cw := &countingWriter{w: w}
	fw := newFrameWriter(cw)
	fw.checked = p.cfg.Checksum
	fw.header(p.cfg.Lossy, p.cfg.Lossless, p.cfg.Threshold, len(tags), tags, len(lossyEntries))
	for i, e := range lossyEntries {
		if err := <-done[i]; err != nil {
			return fail(err)
		}
		st.LossyOutBytes += int64(len(comps[i]))
		fw.lossySection(e.Name, e.Tensor.Shape(), comps[i])
		comps[i] = nil // the section is on the wire; release it
		if fw.err != nil {
			return fail(fw.err)
		}
	}
	if err := <-done[nTasks-1]; err != nil {
		return fail(err)
	}
	st.MetaOutBytes = int64(len(metaComp))
	fw.metaSection(metaComp)
	if fw.err != nil {
		return st, fw.err
	}
	st.CompressedBytes = cw.n
	st.CompressTime = time.Since(start)
	obsFramesEncoded.Inc()
	return st, nil
}

// asByteReader returns r itself when it can serve varint reads
// directly (e.g. *bufio.Reader, *bytes.Reader), else wraps it. The
// wrapper may read ahead; callers interleaving other reads on r
// should pass a *bufio.Reader they own.
func asByteReader(r io.Reader) byteReader {
	if br, ok := r.(byteReader); ok {
		return br
	}
	return bufio.NewReader(r)
}

// streamSource parses a frame incrementally from a reader: a
// WireReader plus the frame format's caps and corruption sentinel.
type streamSource struct {
	WireReader
	// arena, when set (an in-place decode), is one reused buffer the
	// frame's payloads are carved from instead of allocated: a steady
	// stream of same-sized frames then reads every section into memory
	// the decoder already holds. What does not fit is read as without an
	// arena and counted in spill, which sizes the arena for next time.
	arena *[]byte
	spill int
}

// frameArenas holds the arenas of in-place decodes between frames: one
// per concurrently decoding receiver, each grown to the largest frame it
// met — resident like lentScratch, and like it dropped by an idle GC.
var frameArenas = sync.Pool{New: func() any { return new([]byte) }}

// borrowArena turns the source's payloads over to a pooled arena until
// returnArena.
func (s *streamSource) borrowArena() {
	s.arena = frameArenas.Get().(*[]byte)
	*s.arena = (*s.arena)[:0]
}

// returnArena ends the loan. Nothing may still read a payload handed out
// under it: decodeFrame has drained its decode pool by the time it
// returns.
func (s *streamSource) returnArena() {
	if s.spill > 0 {
		// Bounded by the bytes that actually arrived: spill counts payloads
		// read in full.
		*s.arena = make([]byte, 0, len(*s.arena)+s.spill)
	}
	frameArenas.Put(s.arena)
	s.arena, s.spill = nil, 0
}

func newStreamSource(r io.Reader) *streamSource {
	return &streamSource{WireReader: WireReader{r: asByteReader(r)}}
}

func (s *streamSource) uvarint() (uint64, error) {
	v, err := s.Uvarint()
	if err != nil {
		// Keep the transport error in the chain (%w): a read-deadline
		// timeout mid-frame must stay classifiable as a straggler cut,
		// not mistaken for corruption.
		return 0, fmt.Errorf("%w: %w", ErrCorrupt, err)
	}
	return v, nil
}

func (s *streamSource) readString() (string, error) {
	l, err := s.uvarint()
	if err != nil {
		return "", err
	}
	if l > maxStreamString {
		return "", fmt.Errorf("%w: string field length %d", ErrCorrupt, l)
	}
	// A field fits in the reader's scratch, so the string is its one copy.
	p := s.buf()[:l]
	if err := s.readFull(p); err != nil {
		return "", fmt.Errorf("%w: truncated string: %w", ErrCorrupt, noEOF(err))
	}
	return string(p), nil
}

func (s *streamSource) payload(n uint64) ([]byte, error) {
	if n > maxStreamSection {
		return nil, fmt.Errorf("%w: section length %d exceeds %d", ErrCorrupt, n, maxStreamSection)
	}
	var buf []byte
	var err error
	if s.arena != nil && uint64(cap(*s.arena)-len(*s.arena)) >= n {
		// The arena is memory already held, so a forged length buys
		// nothing; the slice is capped so that no append can run into the
		// next payload.
		a, end := *s.arena, len(*s.arena)+int(n)
		buf, *s.arena = a[len(a):end:end], a[:end]
		err = s.readFull(buf)
	} else {
		buf, err = s.Bytes(int(n))
		if s.arena != nil {
			s.spill += len(buf)
		}
	}
	if err == io.EOF {
		// Nothing of this field was present: clean end of stream, which
		// callers at a frame boundary surface as io.EOF.
		return nil, io.EOF
	}
	if err != nil {
		return nil, fmt.Errorf("%w: truncated section: %w", ErrCorrupt, err)
	}
	return buf, nil
}

// verifyCRC stops the running checksum, consumes the region's 4-byte
// stored trailer, and fails with ErrCorruptFrame (naming what) on
// mismatch or truncation.
func (s *streamSource) verifyCRC(what string) error {
	sum := s.EndCRC()
	var b [4]byte
	if _, err := io.ReadFull(s.r, b[:]); err != nil {
		return fmt.Errorf("%w: %s: missing trailer", ErrCorruptFrame, what)
	}
	if binary.BigEndian.Uint32(b[:]) != sum {
		return fmt.Errorf("%w: %s", ErrCorruptFrame, what)
	}
	return nil
}

// decodePool fans section decodes across a bounded worker pool as the
// frame reader produces them, recording the first failure. With
// parallelism 1 it degenerates to inline calls.
type decodePool struct {
	sem chan struct{}
	wg  sync.WaitGroup

	mu  sync.Mutex
	err error
}

func newDecodePool(parallelism int) *decodePool {
	if parallelism <= 1 {
		return &decodePool{}
	}
	return &decodePool{sem: make(chan struct{}, parallelism)}
}

func (dp *decodePool) setErr(err error) {
	dp.mu.Lock()
	if dp.err == nil {
		dp.err = err
	}
	dp.mu.Unlock()
}

func (dp *decodePool) failed() bool {
	dp.mu.Lock()
	defer dp.mu.Unlock()
	return dp.err != nil
}

// run schedules f, blocking while all workers are busy — backpressure
// that keeps a fast reader from buffering unbounded decode work.
func (dp *decodePool) run(f func() error) {
	if dp.failed() {
		return
	}
	if dp.sem == nil {
		if err := f(); err != nil {
			dp.setErr(err)
		}
		return
	}
	dp.wg.Add(1)
	dp.sem <- struct{}{}
	go func() {
		defer dp.wg.Done()
		err := f()
		<-dp.sem
		if err != nil {
			dp.setErr(err)
		}
	}()
}

func (dp *decodePool) wait() error {
	dp.wg.Wait()
	return dp.err
}

// lentScratch holds the buffers emit-mode decodes reconstruct into. A
// decode worker takes one per section and returns it when emit has
// returned, so what stays resident is one buffer per concurrently
// decoding worker, grown to the largest tensor it met — never a model,
// and nothing once decoding has been idle for two GCs.
var lentScratch = sync.Pool{New: func() any { return new([]float32) }}

// poisonLent overwrites lent scratch with NaN when its loan ends, so a
// consumer that kept a lent tensor reads NaN, not the next section. On
// under the race detector; tests switch it on.
var poisonLent = raceEnabled

// lossySection is one verified lossy section of a frame, and in emit
// mode its entry's redo handle: the payload (a slice of its own off the
// stream source) and its compressor are all a replay needs.
type lossySection struct {
	name    string
	shape   []int
	payload []byte
	lc      lossy.Compressor
	t       *tensor.Tensor // assemble mode: the decoded, owned tensor
	// held, in an in-place decode, is the receiver's tensor of this name
	// and shape: the section reconstructs into its storage and t is held
	// itself.
	held *tensor.Tensor
}

// Redo implements model.Redoer. The first decode of an emit-mode
// section and every replay run this one function, so they cannot differ.
func (ls *lossySection) Redo(use func(data []float32) error) error {
	sc := lentScratch.Get().(*[]float32)
	defer lentScratch.Put(sc)
	data, err := lossy.DecompressInto(ls.lc, *sc, ls.payload)
	if err != nil {
		return fmt.Errorf("%w: tensor %q: %v", ErrCorrupt, ls.name, err)
	}
	*sc = data
	if poisonLent {
		defer func() {
			nan := float32(math.NaN())
			for i := range data {
				data[i] = nan
			}
		}()
	}
	return use(data)
}

// decode is the section's decode-pool task: with a nil emit it keeps
// the decoded tensor, otherwise it lends it.
func (ls *lossySection) decode(fm *famMetrics, emit func(model.Entry) error) error {
	decStart := time.Now()
	if emit == nil {
		var into []float32
		if ls.held != nil {
			into = ls.held.Data()
		}
		data, err := lossy.DecompressInto(ls.lc, into, ls.payload)
		if err != nil {
			return fmt.Errorf("%w: tensor %q: %v", ErrCorrupt, ls.name, err)
		}
		if ls.t, err = ls.decoded(fm, decStart, data); err != nil || ls.held == nil {
			return err
		}
		// decoded vouched for the element count, so the values are held's
		// either already (the compressor reconstructed into it) or by copy.
		if len(data) > 0 && &data[0] != &into[0] {
			copy(into, data)
		}
		ls.t = ls.held
		return nil
	}
	return ls.Redo(func(data []float32) error {
		t, err := ls.decoded(fm, decStart, data)
		if err != nil {
			return err
		}
		return emit(model.Entry{Name: ls.name, DType: model.Float32, Tensor: t, Redo: ls})
	})
}

// decoded accounts one finished section decode and shapes its values.
func (ls *lossySection) decoded(fm *famMetrics, decStart time.Time, data []float32) (*tensor.Tensor, error) {
	fm.decNs.Add(time.Since(decStart).Nanoseconds())
	fm.decIn.Add(int64(len(ls.payload)))
	fm.decOut.Add(int64(len(data)) * 4)
	fm.decSections.Inc()
	if len(ls.payload) > 0 {
		fm.decRatio.Observe(float64(len(data)) * 4 / float64(len(ls.payload)))
	}
	t, err := tensor.FromData(data, ls.shape...)
	if err != nil {
		return nil, fmt.Errorf("%w: tensor %q reshape: %v", ErrCorrupt, ls.name, err)
	}
	return t, nil
}

// decodeFrame is the shared frame reader: it parses the header,
// dispatches each lossy section to the decode pool as it is read (so
// on a network reader decompression overlaps reception), parses the
// lossless section, and reassembles the state dict in original entry
// order.
//
// With a non-nil emit, the frame is decoded as a stream of entries
// instead: each decoded tensor (and each lossless metadata entry) is
// handed to emit the moment its decode finishes — possibly from
// concurrent decode workers — and no output state dict is assembled.
// Lossy tensors are lent (see DecompressEntriesFrom). Name-level
// validation (duplicates, membership) is the consumer's job in that
// mode; the reader still verifies the frame's tag/section structure.
// An emit error aborts the decode.
//
// With a non-nil dst (and a nil emit) the frame is decoded in place, as
// DecompressInto describes: entry i lands in dst's i-th entry when the
// two agree on name, dtype and shape.
func decodeFrame(src *streamSource, parallelism int, emit func(model.Entry) error, dst *model.StateDict) (*model.StateDict, error) {
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	defer src.Release()

	hdr, err := src.payload(5)
	if err != nil {
		if err == io.EOF {
			return nil, io.EOF // clean end of a multi-frame stream
		}
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	if string(hdr[:4]) != pipelineMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	checked := false
	switch hdr[4] {
	case formatVersion:
	case formatVersionChecked:
		checked = true
	default:
		return nil, fmt.Errorf("%w: version %d", ErrCorrupt, hdr[4])
	}
	if checked {
		src.BeginCRC()
	}

	lossyName, err := src.readString()
	if err != nil {
		return nil, fmt.Errorf("%w: string field", ErrCorrupt)
	}
	losslessName, err := src.readString()
	if err != nil {
		return nil, fmt.Errorf("%w: string field", ErrCorrupt)
	}
	if _, err := src.uvarint(); err != nil { // threshold (informational)
		return nil, fmt.Errorf("%w: threshold", ErrCorrupt)
	}

	nEntries64, err := src.uvarint()
	if err != nil {
		return nil, fmt.Errorf("%w: entry count", ErrCorrupt)
	}
	// Rejecting implausible claims here also keeps the int conversion
	// below from wrapping negative.
	if nEntries64 > maxStreamEntries {
		return nil, fmt.Errorf("%w: entry count %d exceeds bound", ErrCorrupt, nEntries64)
	}
	nEntries := int(nEntries64)
	tagBytes, err := src.payload(uint64((nEntries + 7) / 8))
	if err != nil {
		return nil, fmt.Errorf("%w: tags", ErrCorrupt)
	}
	tags := unpackBools(tagBytes, nEntries)

	nLossy64, err := src.uvarint()
	if err != nil {
		return nil, fmt.Errorf("%w: lossy count", ErrCorrupt)
	}
	if nLossy64 > maxStreamEntries {
		return nil, fmt.Errorf("%w: lossy count %d exceeds bound", ErrCorrupt, nLossy64)
	}
	// Verify the header before acting on anything it claims — a flipped
	// bit in a codec name must surface as ErrCorruptFrame, not as an
	// unknown-codec lookup failure.
	if checked {
		if err := src.verifyCRC("header"); err != nil {
			obsChecksumFailures.Inc()
			return nil, err
		}
	}

	lc, err := LossyByName(lossyName)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	ll, err := lossless.New(losslessName)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	// One read-locked lookup per frame; the per-section cost below is
	// plain atomic adds, so the streaming fold path stays alloc-free.
	fm := metricsForFamily(lossyName)

	// Grown per parsed section (each costs ≥3 real bytes), never sized
	// by the claimed count in one shot; pointer elements stay stable
	// for the decode goroutines across regrows.
	lossyTensors := make([]*lossySection, 0, min(nLossy64, 1024))
	pool := newDecodePool(parallelism)
	// Once decode work is in flight, every return must drain the pool
	// first: in emit mode a worker still running after decodeFrame
	// returns would deliver entries to a consumer that believes the
	// decode is over (e.g. an aggregation contributor already being
	// aborted), and in assemble mode it would touch source buffers the
	// caller is free to reuse.
	bail := func(err error) (*model.StateDict, error) {
		pool.setErr(err)
		_ = pool.wait()
		return nil, err
	}
	// In place, section i lines up with the dict's entry at the frame's
	// i-th lossy tag and metadata entry k with the one at its k-th other.
	var lossyAt, metaAt []int
	if dst != nil {
		lossyAt = make([]int, 0, len(tags))
		metaAt = make([]int, 0, len(tags)) // non-nil even when empty: nil would mean "same position"
		for i, isLossy := range tags {
			if isLossy {
				lossyAt = append(lossyAt, i)
			} else {
				metaAt = append(metaAt, i)
			}
		}
	}
	for i := uint64(0); i < nLossy64; i++ {
		if checked {
			src.BeginCRC()
		}
		name, err := src.readString()
		if err != nil {
			return bail(fmt.Errorf("%w: tensor name", ErrCorrupt))
		}
		ndims, err := src.uvarint()
		if err != nil || ndims > maxStreamDims {
			return bail(fmt.Errorf("%w: tensor %q dims", ErrCorrupt, name))
		}
		shape := make([]int, ndims)
		elems := uint64(1)
		for d := range shape {
			v, err := src.uvarint()
			if err != nil || v > maxStreamElems {
				return bail(fmt.Errorf("%w: tensor %q dim", ErrCorrupt, name))
			}
			if elems *= v; elems > maxStreamElems {
				return bail(fmt.Errorf("%w: tensor %q shape overflow", ErrCorrupt, name))
			}
			shape[d] = int(v)
		}
		payloadLen, err := src.uvarint()
		if err != nil {
			return bail(fmt.Errorf("%w: tensor %q payload", ErrCorrupt, name))
		}
		payload, err := src.payload(payloadLen)
		if err != nil {
			return bail(fmt.Errorf("%w: tensor %q payload", ErrCorrupt, name))
		}
		// Verify before dispatch: a damaged section must never reach a
		// decoder, so in emit mode nothing corrupt is ever folded.
		if checked {
			if err := src.verifyCRC(fmt.Sprintf("tensor %q", name)); err != nil {
				obsChecksumFailures.Inc()
				return bail(err)
			}
		}
		lt := &lossySection{name: name, shape: shape, payload: payload, lc: lc}
		if i < uint64(len(lossyAt)) && lossyAt[i] < dst.Len() {
			if e := dst.At(lossyAt[i]); reusable(e, name, model.Float32, shape) {
				lt.held = e.Tensor
			}
		}
		lossyTensors = append(lossyTensors, lt)
		pool.run(func() error { return lt.decode(fm, emit) })
	}

	if checked {
		src.BeginCRC()
	}
	metaLen, err := src.uvarint()
	if err != nil {
		return bail(fmt.Errorf("%w: metadata section", ErrCorrupt))
	}
	metaPayload, err := src.payload(metaLen)
	if err != nil {
		return bail(fmt.Errorf("%w: metadata section", ErrCorrupt))
	}
	if checked {
		if err := src.verifyCRC("metadata"); err != nil {
			obsChecksumFailures.Inc()
			return bail(err)
		}
	}
	meta := make([]model.Entry, 0, len(metaAt))
	pool.run(func() error {
		blob, err := ll.Decompress(metaPayload)
		if err != nil {
			return fmt.Errorf("%w: metadata: %v", ErrCorrupt, err)
		}
		err = unmarshalStateDictEntries(bytes.NewReader(blob), dst, metaAt, func(e model.Entry, _ bool) error {
			meta = append(meta, e)
			if emit != nil {
				return emit(e)
			}
			return nil
		})
		if err == io.EOF {
			return fmt.Errorf("%w: empty metadata", ErrCorrupt)
		}
		return err
	})
	if err := pool.wait(); err != nil {
		return nil, err
	}

	if emit != nil {
		// Entries already streamed out; verify the tag vector matches
		// the section counts so a structurally inconsistent frame
		// still fails even though nothing is reassembled.
		nLossy, nMeta := 0, 0
		for _, isLossy := range tags {
			if isLossy {
				nLossy++
			} else {
				nMeta++
			}
		}
		if nLossy != len(lossyTensors) || nMeta != len(meta) {
			return nil, fmt.Errorf("%w: section/tag mismatch", ErrCorrupt)
		}
		obsFramesDecoded.Inc()
		return nil, nil
	}

	// Reassemble in original order.
	metaEntries := meta
	out := model.NewStateDict()
	li, mi := 0, 0
	for _, isLossy := range tags {
		if isLossy {
			if li >= len(lossyTensors) {
				return nil, fmt.Errorf("%w: lossy tensor underrun", ErrCorrupt)
			}
			lt := lossyTensors[li]
			li++
			if err := out.Add(model.Entry{Name: lt.name, DType: model.Float32, Tensor: lt.t}); err != nil {
				return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
			}
			continue
		}
		if mi >= len(metaEntries) {
			return nil, fmt.Errorf("%w: metadata entry underrun", ErrCorrupt)
		}
		if err := out.Add(metaEntries[mi]); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		mi++
	}
	if li != len(lossyTensors) || mi != len(metaEntries) {
		return nil, fmt.Errorf("%w: section/tag mismatch", ErrCorrupt)
	}
	obsFramesDecoded.Inc()
	return out, nil
}

// DecompressFrom decodes one FedSZ frame from r, dispatching each
// tensor's decode as soon as its section arrives so decompression
// overlaps reception. It reads exactly one frame — no readahead beyond
// r's own buffering — so frames and other messages can follow on the
// same stream; pass a reader that implements io.ByteReader (e.g.
// *bufio.Reader) to guarantee that, as a bare io.Reader gets wrapped
// in a buffered reader that may read past the frame. A stream with no
// bytes at all returns io.EOF. Parallelism ≤ 0 selects
// runtime.GOMAXPROCS(0); 1 forces serial decoding.
func DecompressFrom(r io.Reader, parallelism int) (*model.StateDict, error) {
	return decodeFrame(newStreamSource(r), parallelism, nil, nil)
}

// DecompressInto is DecompressFrom for a receiver that already holds a
// dict of the expected shape — a client's previous global. Entry i of
// the frame lands in dst's i-th entry when the two agree on name, dtype
// and shape: a lossy tensor reconstructs straight into that entry's
// storage, a metadata entry converts into it, and the returned dict
// carries dst's own tensor for it. Any entry that does not match is
// allocated exactly as DecompressFrom would and leaves dst's entry
// untouched, so a nil or differently shaped dst only costs allocation.
// Compressed sections are read into one pooled buffer, so a steady
// stream of frames into one dict allocates no tensor and no section.
// The decoded values are those DecompressFrom yields for the same bytes.
// On error dst's matching entries hold an unspecified mix of old and
// new values; after success dst must no longer be read as the old
// model — the returned dict has taken its storage over.
func DecompressInto(r io.Reader, parallelism int, dst *model.StateDict) (*model.StateDict, error) {
	if dst == nil {
		return DecompressFrom(r, parallelism)
	}
	src := newStreamSource(r)
	src.borrowArena()
	defer src.returnArena()
	return decodeFrame(src, parallelism, nil, dst)
}

// DecompressEntriesFrom decodes one FedSZ frame from r as a stream of
// state-dict entries: emit receives each tensor the moment its
// section finishes decompressing (and each metadata entry once the
// lossless section decodes), so a consumer can fold an update into an
// aggregate as it arrives without ever materializing the client's
// full state dict. Entries may be emitted from concurrent decode
// workers in completion order — emit must be safe for concurrent use
// and must not assume entry order. An emit error aborts the decode.
//
// Tensors handed to emit are lent: an entry whose Redo is set lives in
// scratch the decoder reuses for the next section, so emit reads (or
// copies) Tensor before it returns and keeps only Redo, which decodes
// the same values again from the entry's verified compressed section.
// Metadata entries (Redo nil) are the consumer's. Read framing and
// limits match DecompressFrom exactly.
func DecompressEntriesFrom(r io.Reader, parallelism int, emit func(model.Entry) error) error {
	if emit == nil {
		return fmt.Errorf("core: nil emit")
	}
	_, err := decodeFrame(newStreamSource(r), parallelism, emit, nil)
	return err
}

// appendPackedBools appends bs packed LSB-first into dst.
func appendPackedBools(dst []byte, bs []bool) []byte {
	off := len(dst)
	dst = append(dst, make([]byte, (len(bs)+7)/8)...)
	for i, b := range bs {
		if b {
			dst[off+i/8] |= 1 << uint(i%8)
		}
	}
	return dst
}
