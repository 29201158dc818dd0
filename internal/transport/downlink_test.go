package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"net"
	"runtime"
	"sync"
	"testing"

	"fedsz/internal/core"
	"fedsz/internal/fl"
	"fedsz/internal/lossy"
	"fedsz/internal/model"
	"fedsz/internal/obs"
	"fedsz/internal/orchestrator"
)

// recordingConn keeps every byte read from the connection and counts the
// bytes written to it.
type recordingConn struct {
	net.Conn
	rx bytes.Buffer
	tx int64
}

func (c *recordingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.rx.Write(p[:n])
	return n, err
}

func (c *recordingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.tx += int64(n)
	return n, err
}

// memConn puts a connStream over memory: it reads a recorded byte stream
// and keeps what is written to it.
type memConn struct {
	net.Conn // nil: no deadlines, no close
	r        io.Reader
	w        bytes.Buffer
}

func (c *memConn) Read(p []byte) (int, error)  { return c.r.Read(p) }
func (c *memConn) Write(p []byte) (int, error) { return c.w.Write(p) }

// hiddenCodec forwards the base codec interface only, like a decorator
// that knows none of the optional ones.
type hiddenCodec struct{ fl.Codec }

// downlinkFed is one federation of two leaves for the downlink tests.
type downlinkFed struct {
	codec    func() fl.Codec // a fresh codec per peer
	coordBps float64         // the coordinator's declared link rate
	edge     bool            // one edge between the coordinator and the leaves
	edgeBps  float64         // the edge's declared link rate
	rounds   int
	div      int // MobileNetV2 width divisor (0 = 16, a 448 KB model)
}

// downlinkRun is what one run of a downlinkFed observed.
type downlinkRun struct {
	committed []*model.StateDict    // initial, then each round's exact committed global
	received  [2][]*model.StateDict // per leaf and round: the global as it arrived
	sent      [2][]*model.StateDict // per leaf and round: the uncompressed update
	leaves    [2]*recordingConn
	upstream  *recordingConn  // the edge's connection to the coordinator
	spans     []obs.RoundSpan // the coordinator's
	edgeSpans []obs.RoundSpan
}

func staticFedSZ(t *testing.T) func() fl.Codec {
	return func() fl.Codec {
		c, err := fl.NewFedSZCodec(core.Config{})
		if err != nil {
			t.Error(err)
		}
		return c
	}
}

func (f downlinkFed) run(t *testing.T) *downlinkRun {
	t.Helper()
	if f.div == 0 {
		f.div = 16
	}
	run := &downlinkRun{committed: []*model.StateDict{model.BuildStateDict(model.MobileNetV2(f.div), 42)}}
	spansBefore := obs.DefaultTrace.Total()
	minClients := 2
	if f.edge {
		minClients = 1
	}
	srv, err := NewOrchestrated(OrchestratedConfig{
		Codec:        f.codec(),
		MinClients:   minClients,
		Rounds:       f.rounds,
		BandwidthBps: f.coordBps,
		// Read by nobody until Serve has returned.
		OnRound: func(_ int, global *model.StateDict, _ orchestrator.RoundStats) {
			run.committed = append(run.committed, global)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	coordLn := tcpListener(t)
	defer coordLn.Close()
	leafAddr := coordLn.Addr().String()

	var wg sync.WaitGroup
	if f.edge {
		edgeLn := tcpListener(t)
		coordAddr := leafAddr
		edge, err := NewEdge(EdgeConfig{
			Upstream: func() (net.Conn, error) {
				conn, err := net.Dial("tcp", coordAddr)
				if err != nil {
					return nil, err
				}
				run.upstream = &recordingConn{Conn: conn}
				return run.upstream, nil
			},
			Codec:        f.codec(),
			MinClients:   2,
			BandwidthBps: f.edgeBps,
			Checksum:     true,
		})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer edgeLn.Close()
			if err := edge.Serve(edgeLn); err != nil {
				t.Errorf("edge: %v", err)
			}
		}()
		leafAddr = edgeLn.Addr().String()
	}
	for c := range run.leaves {
		conn, err := net.Dial("tcp", leafAddr)
		if err != nil {
			t.Fatal(err)
		}
		run.leaves[c] = &recordingConn{Conn: conn}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			defer conn.Close()
			err := RunClient(run.leaves[c], f.codec(), func(round int, global *model.StateDict) (*model.StateDict, int, error) {
				run.received[c] = append(run.received[c], global.Clone())
				// A local step that depends on what arrived: any difference in
				// the global a leaf holds shows in what it sends.
				for i := 0; i < global.Len(); i++ {
					if e := global.At(i); e.DType == model.Float32 {
						data := e.Tensor.Data()
						for j := (round + c) % 5; j < len(data); j += 5 {
							data[j] = data[j]*0.999 + float32(c+1)*1e-4
						}
					}
				}
				run.sent[c] = append(run.sent[c], global.Clone())
				return global, 100 + c, nil
			})
			if err != nil {
				t.Errorf("leaf %d: %v", c, err)
			}
		}(c)
	}
	if _, err := srv.Serve(coordLn, run.committed[0]); err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	wg.Wait()
	if len(run.committed) != f.rounds+1 {
		t.Fatalf("%d rounds committed, want %d", len(run.committed)-1, f.rounds)
	}
	for _, sp := range obs.DefaultTrace.Recent(int(obs.DefaultTrace.Total() - spansBefore)) {
		if sp.Tier == "coordinator" {
			run.spans = append(run.spans, sp)
		} else {
			run.edgeSpans = append(run.edgeSpans, sp)
		}
	}
	return run
}

// downlinks parses a recorded downlink stream — everything a leaf or an
// edge read from the tier above — back into rounds, each with the frame
// bytes it carried (nil for a raw model), and checks that the stream
// holds nothing else but the closing MsgShutdown.
func downlinks(t *testing.T, codec fl.Codec, stream []byte) []downlink {
	t.Helper()
	cs := newConnStream(&memConn{r: bytes.NewReader(stream)})
	var out []downlink
	for {
		var relay bytes.Buffer
		d, done, err := readDownlink(cs, codec, nil, &relay)
		if err != nil {
			t.Fatalf("recorded downlink %d: %v", len(out), err)
		}
		if done {
			if _, err := cs.r.ReadByte(); err != io.EOF {
				t.Fatalf("bytes after MsgShutdown in a recorded downlink stream")
			}
			return out
		}
		out = append(out, d)
	}
}

// rawDownlinkBytes is the size of the stream a tier writes for these
// rounds when every model travels as MsgGlobalModel: what writeTo sent
// before there was a frame downlink.
func rawDownlinkBytes(t *testing.T, rounds []downlink) int {
	t.Helper()
	n := 1 // MsgShutdown
	for _, d := range rounds {
		if d.traceID != "" {
			n += 1 + core.UvarintLen(uint64(len(d.traceID))) + len(d.traceID) + core.UvarintLen(uint64(d.round))
		}
		buf, err := core.MarshalStateDict(d.global)
		if err != nil {
			t.Fatal(err)
		}
		n += 1 + len(buf)
	}
	return n
}

// offLossyPath returns sd's entries that a default FedSZ pipeline carries
// losslessly.
func offLossyPath(sd *model.StateDict) *model.StateDict {
	out := model.NewStateDict()
	for _, e := range sd.Entries() {
		if e.DType != model.Float32 || !e.IsWeightNamed() || e.NumElements() <= core.DefaultThreshold {
			_ = out.Add(e) // sd's names are distinct
		}
	}
	return out
}

// auditFedAvg is the benchmark's element-wise audit: every element of a
// committed global lies within the weight-averaged per-tensor bound (REL
// 1e-2 of each update's value range on the lossy path, zero elsewhere)
// of the exact FedAvg of the leaves' uncompressed updates.
func auditFedAvg(t *testing.T, round int, global *model.StateDict, kept []*model.StateDict, weights []float64) {
	t.Helper()
	var total float64
	for _, w := range weights {
		total += w
	}
	for _, ref := range kept[0].Entries() {
		got, ok := global.Get(ref.Name)
		if !ok || got.DType != ref.DType || got.NumElements() != ref.NumElements() {
			t.Fatalf("round %d: committed global lacks %q", round, ref.Name)
		}
		if ref.DType == model.Int64 {
			continue
		}
		lossyPath := ref.IsWeightNamed() && ref.NumElements() > core.DefaultThreshold
		exact := make([]float64, ref.NumElements())
		var allowed float64
		for i, sd := range kept {
			e, _ := sd.Get(ref.Name)
			for j, v := range e.Tensor.Data() {
				exact[j] += weights[i] * float64(v)
			}
			if lossyPath {
				abs, err := lossy.RelBound(core.DefaultBound).Resolve(e.Tensor.Data())
				if err != nil {
					t.Fatal(err)
				}
				allowed += weights[i] * abs / total
			}
		}
		for j, v := range got.Tensor.Data() {
			want := float32(exact[j] / total)
			if math.Abs(float64(v)-float64(want)) > allowed+math.Abs(float64(want))*1.2e-7 {
				t.Fatalf("round %d: %q[%d] = %v, exact FedAvg %v, allowed %v", round, ref.Name, j, v, want, allowed)
			}
		}
	}
}

// TestFrameDownlinkFlat: on a declared 100 Mbps tier with a static FedSZ
// codec the global travels as a frame. What each leaf holds is within
// REL 1e-2 of the value range of the coordinator's exact global on every
// lossy-path tensor and bit-exact everywhere else, both leaves hold the
// same bits, the coordinator keeps the exact model, and every committed
// global passes the audit against what the leaves actually sent.
func TestFrameDownlinkFlat(t *testing.T) {
	const rounds = 4
	run := downlinkFed{codec: staticFedSZ(t), coordBps: 100e6, rounds: rounds}.run(t)
	if len(run.spans) != rounds {
		t.Fatalf("%d coordinator spans, want %d", len(run.spans), rounds)
	}
	down := downlinks(t, staticFedSZ(t)(), run.leaves[0].rx.Bytes())
	if len(down) != rounds {
		t.Fatalf("leaf 0 read %d downlinks, want %d", len(down), rounds)
	}
	for r, sp := range run.spans {
		d := sp.Down
		if d == nil || d.Mode != "frame" || d.WireBytes <= 0 || d.WireBytes >= d.RawBytes || d.EncodeNs <= 0 {
			t.Fatalf("round %d span downlink = %+v, want a frame smaller than the model with a measured encode", r, d)
		}
		if d.RawBytes != run.committed[r].SizeBytes() {
			t.Errorf("round %d: span S = %d, the model is %d bytes", r, d.RawBytes, run.committed[r].SizeBytes())
		}
		// Both participants were sent the trace message and the one frame,
		// and what the span says of it is what crossed the wire.
		if int64(len(down[r].frame)) != d.WireBytes {
			t.Errorf("round %d: the leaf received a %d-byte frame, the span says S' = %d", r, len(down[r].frame), d.WireBytes)
		}
		if want := 2 * (d.WireBytes + 1); sp.BytesDown < want || sp.BytesDown > want+64 {
			t.Errorf("round %d: span counts %d bytes down, two frames are %d", r, sp.BytesDown, want)
		}
	}
	for r := 0; r < rounds; r++ {
		exact := run.committed[r]
		assertSameDict(t, run.received[0][r], run.received[1][r])
		lossyTensors := 0
		for _, want := range exact.Entries() {
			got, _ := run.received[0][r].Get(want.Name)
			if want.DType == model.Int64 || !(want.IsWeightNamed() && want.NumElements() > core.DefaultThreshold) {
				continue
			}
			lossyTensors++
			abs, err := lossy.RelBound(core.DefaultBound).Resolve(want.Tensor.Data())
			if err != nil {
				t.Fatal(err)
			}
			differs := false
			for j, v := range want.Tensor.Data() {
				g := got.Tensor.Data()[j]
				differs = differs || g != v
				if math.Abs(float64(g)-float64(v)) > abs+math.Abs(float64(v))*1.2e-7 {
					t.Fatalf("round %d: leaf holds %q[%d] = %v, exact %v, bound %v", r, want.Name, j, g, v, abs)
				}
			}
			if !differs {
				t.Errorf("round %d: %q arrived bit-exact: was the downlink a frame at all?", r, want.Name)
			}
		}
		if lossyTensors == 0 {
			t.Fatal("the model has no lossy-path tensor")
		}
		assertSameDict(t, offLossyPath(exact), offLossyPath(run.received[0][r]))
		auditFedAvg(t, r, run.committed[r+1], []*model.StateDict{run.sent[0][r], run.sent[1][r]}, []float64{100, 101})
	}
}

// TestFrameDownlinkRelayedThroughEdge: behind a shaped coordinator an
// unshaped edge passes the frame on byte for byte — it neither decodes
// and re-encodes nor falls back to the raw model — so the leaves of the
// region hold what leaves joined directly would, and the federation
// commits bit for bit the globals the flat one commits.
func TestFrameDownlinkRelayedThroughEdge(t *testing.T) {
	const rounds = 3
	flat := downlinkFed{codec: staticFedSZ(t), coordBps: 100e6, rounds: rounds}.run(t)
	hier := downlinkFed{codec: staticFedSZ(t), coordBps: 100e6, edge: true, rounds: rounds}.run(t)
	codec := staticFedSZ(t)()
	up := downlinks(t, codec, hier.upstream.rx.Bytes())
	if len(up) != rounds {
		t.Fatalf("the edge read %d downlinks, want %d", len(up), rounds)
	}
	for c, leaf := range hier.leaves {
		down := downlinks(t, codec, leaf.rx.Bytes())
		if len(down) != rounds {
			t.Fatalf("leaf %d read %d downlinks, want %d", c, len(down), rounds)
		}
		for r := range down {
			if len(up[r].frame) == 0 {
				t.Fatalf("round %d: the coordinator sent the edge a raw model", r)
			}
			if !bytes.Equal(down[r].frame, up[r].frame) {
				t.Fatalf("round %d: leaf %d received %d frame bytes that are not the %d the edge received", r, c, len(down[r].frame), len(up[r].frame))
			}
			if down[r].traceID != up[r].traceID || down[r].round != up[r].round {
				t.Errorf("round %d: leaf %d got trace %q/%d, the edge %q/%d", r, c, down[r].traceID, down[r].round, up[r].traceID, up[r].round)
			}
		}
	}
	for r := 0; r <= rounds; r++ {
		assertSameDict(t, flat.committed[r], hier.committed[r])
	}
	for r := 0; r < rounds; r++ {
		for c := range hier.received {
			assertSameDict(t, flat.received[c][r], hier.received[c][r])
		}
	}
	// The coordinator's span says frame, the edge's says relay — with the
	// same S and S', and no encode of its own.
	if len(hier.edgeSpans) != rounds {
		t.Fatalf("%d edge spans, want %d", len(hier.edgeSpans), rounds)
	}
	for r := 0; r < rounds; r++ {
		c, e := hier.spans[r].Down, hier.edgeSpans[r].Down
		if c == nil || c.Mode != "frame" || e == nil || e.Mode != "relay" {
			t.Fatalf("round %d: coordinator downlink %+v, edge downlink %+v, want frame and relay", r, c, e)
		}
		if e.RawBytes != c.RawBytes || e.WireBytes != c.WireBytes || e.EncodeNs != 0 {
			t.Errorf("round %d: edge relayed %+v, the coordinator encoded %+v", r, e, c)
		}
	}
}

// TestRawDownlinkWhenGateDeclines: a tier sends the model raw, in
// exactly the bytes it always did, when it has no declared rate, when its
// codec's frames are not whole images (plain, randk's random subset) and
// when the declared link is too fast for a frame to pay.
func TestRawDownlinkWhenGateDeclines(t *testing.T) {
	randk := func() fl.Codec {
		c, err := fl.NewFedSZCodec(core.Config{Lossy: "randk"})
		if err != nil {
			t.Error(err)
		}
		return c
	}
	for _, tc := range []struct {
		name  string
		codec func() fl.Codec
		bps   float64
		gated bool // the tier encoded one frame to find out
	}{
		{name: "unshaped fedsz", codec: staticFedSZ(t)},
		{name: "shaped plain", codec: func() fl.Codec { return fl.PlainCodec{} }, bps: 100e6, gated: true},
		{name: "shaped randk", codec: randk, bps: 100e6, gated: true},
		{name: "fedsz on a 1 Gbps link", codec: staticFedSZ(t), bps: 1e9, gated: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const rounds = 3
			framesBefore := frameCounter(MsgGlobalFrame, false).Value()
			run := downlinkFed{codec: tc.codec, coordBps: tc.bps, rounds: rounds}.run(t)
			if n := frameCounter(MsgGlobalFrame, false).Value() - framesBefore; n != 0 {
				t.Fatalf("%d MsgGlobalFrame sent", n)
			}
			for c, leaf := range run.leaves {
				down := downlinks(t, tc.codec(), leaf.rx.Bytes())
				if len(down) != rounds {
					t.Fatalf("leaf %d read %d downlinks, want %d", c, len(down), rounds)
				}
				for r, d := range down {
					if d.frame != nil {
						t.Fatalf("round %d: leaf %d was sent a frame", r, c)
					}
					assertSameDict(t, run.committed[r], d.global) // the exact model
				}
				if got, want := leaf.rx.Len(), rawDownlinkBytes(t, down); got != want {
					t.Errorf("leaf %d read %d bytes, the raw downlink of these rounds is %d", c, got, want)
				}
			}
			// Only the first round of a shaped tier weighs a frame.
			for r, sp := range run.spans {
				switch {
				case tc.gated && r == 0:
					if sp.Down == nil || sp.Down.Mode != "raw" || sp.Down.WireBytes <= 0 {
						t.Errorf("round 0 span downlink = %+v, want a frame that was turned down", sp.Down)
					}
				case sp.Down != nil:
					t.Errorf("round %d span downlink = %+v, want none", r, sp.Down)
				}
			}
		})
	}
}

// TestFrameDownlinkDeterministic: the gate reads no clock and asks the
// codec for no optional interface, so the same federation run twice, and
// once more with every codec behind a wrapper that hides the optional
// interfaces (the leaves then decode into fresh dicts), moves the same
// bytes in both directions and commits the same global.
func TestFrameDownlinkDeterministic(t *testing.T) {
	const rounds = 3
	wrapped := func() fl.Codec { return hiddenCodec{staticFedSZ(t)()} }
	type outcome struct {
		down, up [2]int
		global   []byte
	}
	var first outcome
	for i, codec := range []func() fl.Codec{staticFedSZ(t), staticFedSZ(t), wrapped} {
		run := downlinkFed{codec: codec, coordBps: 100e6, rounds: rounds}.run(t)
		var got outcome
		for c, leaf := range run.leaves {
			got.down[c], got.up[c] = leaf.rx.Len(), int(leaf.tx)
		}
		var err error
		if got.global, err = core.MarshalStateDict(run.committed[rounds]); err != nil {
			t.Fatal(err)
		}
		if d := run.spans[rounds-1].Down; d == nil || d.Mode != "frame" {
			t.Fatalf("run %d: last span downlink = %+v, want mode frame", i, d)
		}
		if i == 0 {
			first = got
			continue
		}
		if got.down != first.down || got.up != first.up {
			t.Errorf("run %d moved %v bytes down and %v up, the first run %v and %v", i, got.down, got.up, first.down, first.up)
		}
		if !bytes.Equal(got.global, first.global) {
			t.Errorf("run %d committed a different global", i)
		}
	}
}

// TestReadPriorAndTraceRejectForgedLengths: the two length-prefixed
// fields an untrusted peer controls outside a codec frame are capped —
// a prior over 1 MiB and a round number that does not fit int32 are
// protocol errors — and a prior, which is discarded unread, costs no
// allocation whether or not its bytes arrive.
func TestReadPriorAndTraceRejectForgedLengths(t *testing.T) {
	reader := func(b []byte) *bufio.Reader { return bufio.NewReader(bytes.NewReader(b)) }
	if err := skipPrior(reader(binary.AppendUvarint(nil, maxPriorSize+1))); !errors.Is(err, ErrProtocol) {
		t.Errorf("prior of maxPriorSize+1: err = %v, want ErrProtocol", err)
	}
	if err := skipPrior(reader(binary.AppendUvarint(nil, MaxFrameSize))); !errors.Is(err, ErrProtocol) {
		t.Errorf("prior of 1 GiB: err = %v, want ErrProtocol", err)
	}
	short := reader(append(binary.AppendUvarint(nil, maxPriorSize), "short"...))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := skipPrior(short)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Error("a truncated prior was accepted")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 256<<10 {
		t.Errorf("a forged prior length over 5 bytes of data allocated %d bytes", grew)
	}
	whole := append(binary.AppendUvarint(nil, 70_000), bytes.Repeat([]byte{7}, 70_000)...)
	r := reader(append(whole, byte(MsgShutdown)))
	if err := skipPrior(r); err != nil {
		t.Errorf("a 70 000-byte prior: %v", err)
	}
	if b, err := r.ReadByte(); err != nil || MsgType(b) != MsgShutdown {
		t.Errorf("after a 70 000-byte prior the stream reads %d, %v; want the next message", b, err)
	}

	trace := func(round uint64) []byte {
		b := binary.AppendUvarint(nil, 4)
		b = append(b, "abcd"...)
		return binary.AppendUvarint(b, round)
	}
	if id, round, err := readRoundTrace(reader(trace(math.MaxInt32))); err != nil || id != "abcd" || round != math.MaxInt32 {
		t.Errorf("round MaxInt32: %q %d %v", id, round, err)
	}
	for _, round := range []uint64{math.MaxInt32 + 1, 1 << 40, math.MaxUint64} {
		if _, _, err := readRoundTrace(reader(trace(round))); !errors.Is(err, ErrProtocol) {
			t.Errorf("round %d: err = %v, want ErrProtocol", round, err)
		}
	}
}

// TestReadDownlinkRejectsRetiredMessages: the type numbers that once
// carried a round error-bound directive (5) and a merged plan prior (8)
// stay reserved, and a downlink that uses them is a protocol error.
func TestReadDownlinkRejectsRetiredMessages(t *testing.T) {
	codec, err := fl.NewFedSZCodec(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	// The reserved slots keep every later type at its wire number.
	if MsgShutdown != 4 || MsgJoinEdge != 6 || MsgPartialSum != 7 || MsgRoundTrace != 9 || MsgGlobalFrame != 10 {
		t.Fatal("message type numbers moved")
	}
	for _, typ := range []byte{5, 8} {
		cs := newConnStream(&memConn{r: bytes.NewReader([]byte{typ, 0, 0, 0, 0, 0, 0, 0, 0})})
		if _, _, err := readDownlink(cs, codec, nil, nil); !errors.Is(err, ErrProtocol) {
			t.Errorf("message type %d: err = %v, want ErrProtocol", typ, err)
		}
	}
}
