package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"fedsz/internal/fl"
	"fedsz/internal/model"
)

// The tracing decorators live here, in the benchmark, around the calls
// into each layer: a codec wrapper, a connection wrapper and the
// TrainFunc/OnRound hooks in workload.go. End-to-end metrics are
// measured with all of them absent; a traced run gives the per-layer
// numbers and the difference between the two is trace.overhead_frac.

// span is one traced interval. BusyNs is the time spent inside it: the
// whole interval for a plain span, the summed waits for an accumulated
// one (blocked reads, blocked writes, folds), whose Start/End are then
// those of the call the waits happened in.
type span struct {
	Name    string `json:"name"`
	Round   int    `json:"round"`
	Client  int    `json:"client"` // leaf index; -1 on the aggregating side
	Parent  string `json:"parent,omitempty"`
	StartNs int64  `json:"start_ns"` // since the tracer's epoch
	EndNs   int64  `json:"end_ns"`
	BusyNs  int64  `json:"busy_ns"`
	Bytes   int64  `json:"bytes,omitempty"`
}

// Span names. A round's children are the leaf-side train/encode/write
// spans and the aggregating side's decode span with its two waits.
const (
	spanRound        = "round"
	spanDownlinkRecv = "transport.downlink_recv"
	spanTrain        = "client.train"
	spanEncode       = "fl.encode"
	spanUplinkWrite  = "transport.uplink_write"
	spanDecode       = "fl.decode"
	spanReadWait     = "transport.uplink_read_wait"
	spanFold         = "orchestrator.fold"
)

// tracer keeps spans in memory until the run ends.
type tracer struct {
	epoch time.Time
	// round is the round the aggregating side is gathering; its codec is
	// shared by every connection, so decode spans read it from here.
	round atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) add(name, parent string, round, client int, start, end time.Time, busy time.Duration, bytes int64) {
	s := span{
		Name: name, Parent: parent, Round: round, Client: client,
		StartNs: start.Sub(t.epoch).Nanoseconds(), EndNs: end.Sub(t.epoch).Nanoseconds(),
		BusyNs: busy.Nanoseconds(), Bytes: bytes,
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// endRound closes round's root span and points the aggregating side at
// the next one. Called from OnRound, before the next broadcast starts.
func (t *tracer) endRound(round int, start, end time.Time) {
	t.add(spanRound, "", round, -1, start, end, end.Sub(start), 0)
	t.round.Store(int64(round + 1))
}

func (t *tracer) writeJSON(path string) error {
	t.mu.Lock()
	buf, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return fmt.Errorf("encode spans: %w", err)
	}
	return os.WriteFile(path, buf, 0o644)
}

// clientTrace is one leaf's trace state. Everything a leaf does —
// socket reads and writes, TrainFunc, EncodeTo — runs on its one
// goroutine, so the fields need no lock.
type clientTrace struct {
	tr         *tracer
	id         int
	round      int       // round being trained/encoded; -1 before the first
	firstRead  time.Time // first downlink byte since the last update was written
	writeStart time.Time // first socket write of the round
	writeEnd   time.Time
	writeBusy  time.Duration
	writeBytes int64
}

// enterTrain is called at the top of TrainFunc: it closes the previous
// round's uplink-write span and records how long the downlink took to
// arrive and decode.
func (ct *clientTrace) enterTrain(round int, now time.Time) {
	ct.flushWrites()
	ct.round = round
	if !ct.firstRead.IsZero() {
		ct.tr.add(spanDownlinkRecv, spanRound, round, ct.id, ct.firstRead, now, now.Sub(ct.firstRead), 0)
		ct.firstRead = time.Time{}
	}
}

// flushWrites emits the socket writes accumulated since the last call
// as one span of the round they belong to (the join lands in round -1).
func (ct *clientTrace) flushWrites() {
	if ct.writeBytes == 0 {
		return
	}
	ct.tr.add(spanUplinkWrite, spanRound, ct.round, ct.id, ct.writeStart, ct.writeEnd, ct.writeBusy, ct.writeBytes)
	ct.writeStart, ct.writeBusy, ct.writeBytes = time.Time{}, 0, 0
}

// meteredConn counts the bytes crossing a leaf's socket and, on a
// traced run, times them. It sits outside the netsim limiter, so a
// paced write's sleep is inside the timed interval.
type meteredConn struct {
	net.Conn
	rx, tx atomic.Int64
	ct     *clientTrace // nil on an untraced run
}

func (c *meteredConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.rx.Add(int64(n))
	if c.ct != nil && n > 0 && c.ct.firstRead.IsZero() {
		c.ct.firstRead = time.Now()
	}
	return n, err
}

// Write counts before the bytes leave, so that once the peer has read
// an update the counter already holds it.
func (c *meteredConn) Write(p []byte) (int, error) {
	c.tx.Add(int64(len(p)))
	var start time.Time
	if c.ct != nil {
		start = time.Now()
	}
	n, err := c.Conn.Write(p)
	if n < len(p) {
		c.tx.Add(int64(n - len(p)))
	}
	if ct := c.ct; ct != nil {
		end := time.Now()
		if ct.writeStart.IsZero() {
			ct.writeStart = start
		}
		ct.writeEnd = end
		ct.writeBusy += end.Sub(start)
		ct.writeBytes += int64(n)
	}
	return n, err
}

// tracedCodec times a codec's streaming calls. The embedded codec
// serves the buffer-path methods unchanged; the optional interfaces the
// transport looks for are forwarded so wrapping changes no behaviour.
// It is safe for concurrent use when the inner codec is: per-call state
// is local and the aggregating side keeps ct nil.
type tracedCodec struct {
	fl.Codec
	tr *tracer
	ct *clientTrace // the leaf this codec encodes for; nil on the aggregating side
}

var (
	_ fl.EntryStreamer  = (*tracedCodec)(nil)
	_ fl.BoundAware     = (*tracedCodec)(nil)
	_ fl.PriorAware     = (*tracedCodec)(nil)
	_ fl.ReferenceAware = (*tracedCodec)(nil)
)

// EncodeTo records tC: the encode's wall time minus the time its
// writes were blocked on the connection's buffer.
func (c *tracedCodec) EncodeTo(w io.Writer, sd *model.StateDict) (fl.UpdateStats, error) {
	tw := &timedWriter{w: w}
	start := time.Now()
	st, err := c.Codec.EncodeTo(tw, sd)
	end := time.Now()
	round, client := int(c.tr.round.Load()), -1
	if c.ct != nil {
		round, client = c.ct.round, c.ct.id
	}
	c.tr.add(spanEncode, spanRound, round, client, start, end, end.Sub(start)-time.Duration(tw.blocked.Load()), st.CompressedBytes)
	return st, err
}

// DecodeEntriesFrom records tD: the streaming decode's wall time minus
// the time it waited for bytes and the time emit spent folding. Decode
// workers run concurrently, so the two waits are sums over goroutines
// and the self time is clamped at zero.
func (c *tracedCodec) DecodeEntriesFrom(r io.Reader, emit func(model.Entry) error) error {
	var readWait, fold atomic.Int64
	if br, ok := r.(byteReader); ok {
		r = &timedReader{r: br, waited: &readWait}
	}
	start := time.Now()
	err := fl.DecodeEntries(c.Codec, r, func(e model.Entry) error {
		t := time.Now()
		err := emit(e)
		fold.Add(int64(time.Since(t)))
		return err
	})
	end := time.Now()
	round := int(c.tr.round.Load())
	self := end.Sub(start) - time.Duration(readWait.Load()+fold.Load())
	if self < 0 {
		self = 0
	}
	c.tr.add(spanDecode, spanRound, round, -1, start, end, self, 0)
	c.tr.add(spanReadWait, spanDecode, round, -1, start, end, time.Duration(readWait.Load()), 0)
	c.tr.add(spanFold, spanDecode, round, -1, start, end, time.Duration(fold.Load()), 0)
	return err
}

func (c *tracedCodec) SetRoundBound(bound float64) {
	if ba, ok := c.Codec.(fl.BoundAware); ok {
		ba.SetRoundBound(bound)
	}
}

func (c *tracedCodec) ExportPriorBytes() []byte {
	if pa, ok := c.Codec.(fl.PriorAware); ok {
		return pa.ExportPriorBytes()
	}
	return nil
}

func (c *tracedCodec) ApplyPriorBytes(raw []byte) error {
	if pa, ok := c.Codec.(fl.PriorAware); ok {
		return pa.ApplyPriorBytes(raw)
	}
	return nil
}

func (c *tracedCodec) SetReference(ref *model.StateDict) {
	if ra, ok := c.Codec.(fl.ReferenceAware); ok {
		ra.SetReference(ref)
	}
}

type timedWriter struct {
	w       io.Writer
	blocked atomic.Int64
}

func (t *timedWriter) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := t.w.Write(p)
	t.blocked.Add(int64(time.Since(start)))
	return n, err
}

type byteReader interface {
	io.Reader
	io.ByteReader
}

// timedReader forwards ReadByte as well as Read: handed a plain
// io.Reader, the frame decoder would put its own bufio.Reader on top,
// read ahead, and swallow the plan-prior trailer behind the frame.
type timedReader struct {
	r      byteReader
	waited *atomic.Int64
}

func (t *timedReader) Read(p []byte) (int, error) {
	start := time.Now()
	n, err := t.r.Read(p)
	t.waited.Add(int64(time.Since(start)))
	return n, err
}

func (t *timedReader) ReadByte() (byte, error) {
	start := time.Now()
	b, err := t.r.ReadByte()
	t.waited.Add(int64(time.Since(start)))
	return b, err
}

// layerMetrics turns a traced run's spans into the per-layer numbers:
// each is the median over the run's timed rounds of that round's value,
// a per-update value being the mean over the round's updates.
func (t *tracer) layerMetrics(res *fedResult, wl workload) map[string]float64 {
	type key struct {
		name  string
		round int
	}
	by := make(map[key][]span)
	for _, s := range t.spans {
		k := key{s.Name, s.Round}
		by[k] = append(by[k], s)
	}
	sec := func(ns int64) float64 {
		if ns < 0 {
			ns = 0 // a boundary out of order shows up in trace.coverage_frac
		}
		return float64(ns) / 1e9
	}
	perUpdate := []string{spanDownlinkRecv, spanTrain, spanEncode, spanUplinkWrite, spanDecode, spanReadWait, spanFold}
	series := make(map[string][]float64)
	var writeBusy, writeBytes int64
	for r := res.firstTimed; r < res.firstTimed+len(res.walls); r++ {
		root, trains, decodes := by[key{spanRound, r}], by[key{spanTrain, r}], by[key{spanDecode, r}]
		if len(root) != 1 || len(trains) == 0 || len(decodes) == 0 {
			continue
		}
		// The three phases partition the round: broadcast until the last
		// leaf starts training, gather until the last update is decoded
		// and folded, commit (and, behind an edge, forward) until OnRound.
		t0, t3 := root[0].StartNs, root[0].EndNs
		var t1, t2 int64
		for _, s := range trains {
			t1 = max(t1, s.StartNs)
		}
		for _, s := range decodes {
			t2 = max(t2, s.EndNs)
		}
		down, gather, commit := sec(t1-t0), sec(t2-t1), sec(t3-t2)
		series["transport.downlink_phase_s"] = append(series["transport.downlink_phase_s"], down)
		series["transport.gather_phase_s"] = append(series["transport.gather_phase_s"], gather)
		series["transport.commit_phase_s"] = append(series["transport.commit_phase_s"], commit)
		series["trace.coverage_frac"] = append(series["trace.coverage_frac"], (down+gather+commit)/sec(t3-t0))
		for _, name := range perUpdate {
			var busy int64
			for _, s := range by[key{name, r}] {
				busy += s.BusyNs
			}
			series[name] = append(series[name], sec(busy)/numClients)
		}
		var socket, codec int64
		for _, s := range by[key{spanUplinkWrite, r}] {
			socket += s.Bytes
			writeBusy += s.BusyNs
		}
		for _, s := range by[key{spanEncode, r}] {
			codec += s.Bytes
		}
		writeBytes += socket
		series["transport.wire_overhead_bytes_per_update"] = append(series["transport.wire_overhead_bytes_per_update"], float64(socket-codec)/numClients)
	}

	m := map[string]float64{
		"transport.downlink_recv_s":    median(series[spanDownlinkRecv]),
		"client.train_s":               median(series[spanTrain]),
		"fl.encode_self_s":             median(series[spanEncode]),
		"transport.uplink_write_s":     median(series[spanUplinkWrite]),
		"fl.decode_self_s":             median(series[spanDecode]),
		"transport.uplink_read_wait_s": median(series[spanReadWait]),
		"orchestrator.fold_s":          median(series[spanFold]),
		// Zero except behind an edge and on a shaped link respectively.
		"hier.partial_wire_bytes":  0,
		"transport.edge_forward_s": 0,
		"netsim.pacing_err_frac":   0,
		"netsim.paced_wire_frac":   0,
	}
	for _, name := range []string{"transport.downlink_phase_s", "transport.gather_phase_s", "transport.commit_phase_s",
		"trace.coverage_frac", "transport.wire_overhead_bytes_per_update"} {
		m[name] = median(series[name])
	}
	if wl.hier {
		sizes := make([]float64, len(res.partials))
		for i, n := range res.partials {
			sizes[i] = float64(n)
		}
		m["hier.partial_wire_bytes"] = median(sizes)
		// Last member folded at the edge until the coordinator's OnRound:
		// behind an edge that is the whole commit phase.
		m["transport.edge_forward_s"] = m["transport.commit_phase_s"]
	}
	if wl.bps > 0 && writeBytes > 0 && res.byteUpdates > 0 {
		// How much longer the leaves' paced writes took than the
		// configured rate says, and the share of a round that the
		// configured rate accounts for (one downlink, then one uplink).
		m["netsim.pacing_err_frac"] = sec(writeBusy)/(float64(writeBytes)*8/wl.bps) - 1
		wire := float64(res.upBytes+res.downBytes) / float64(res.byteUpdates) * 8 / wl.bps
		m["netsim.paced_wire_frac"] = wire / median(seconds(res.walls))
	}
	return m
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}
