package transport

import (
	"bytes"
	"math"
	"runtime"
	"testing"

	"fedsz/internal/core"
	"fedsz/internal/fl"
	"fedsz/internal/model"
	"fedsz/internal/tensor"
)

func mustTensor(tb testing.TB, data []float32, shape ...int) *tensor.Tensor {
	tb.Helper()
	t, err := tensor.FromData(append([]float32(nil), data...), shape...)
	if err != nil {
		tb.Fatal(err)
	}
	return t
}

// FuzzReadDownlink feeds arbitrary bytes to the parser every leaf and
// every edge puts in front of the tier above it — all four message kinds,
// with and without a previous dict to decode into and a relay buffer to
// tee a frame into. It must never panic, never allocate out of proportion
// to the bytes it was given (the staged reads of both model encodings), and a downlink it accepts holds a dict that owns
// every tensor it names and, for a frame, exactly the frame's bytes.
func FuzzReadDownlink(f *testing.F) {
	codec, err := fl.NewFedSZCodec(core.Config{})
	if err != nil {
		f.Fatal(err)
	}
	// A small dict keeps the seeds to a few KB — one tensor on the lossy
	// path, one off it, one integer entry — so the engine mutates instead
	// of minimizing.
	weights := make([]float32, 1200)
	for i := range weights {
		weights[i] = float32(math.Sin(float64(i) / 40))
	}
	global := model.NewStateDict()
	for _, e := range []model.Entry{
		{Name: "fc.weight", DType: model.Float32, Tensor: mustTensor(f, weights, 30, 40)},
		{Name: "fc.bias", DType: model.Float32, Tensor: mustTensor(f, weights[:30], 30)},
		{Name: "bn.num_batches_tracked", DType: model.Int64, Ints: []int64{7, 8, 9}},
	} {
		if err := global.Add(e); err != nil {
			f.Fatal(err)
		}
	}
	frame, _, err := encodeUpdate(codec, global)
	if err != nil {
		f.Fatal(err)
	}
	// One raw and one frame downlink as a tier writes them, every optional
	// message present, then the shutdown that ends a session.
	for _, d := range []downlink{
		{traceID: "00c0ffee00c0ffee", round: 3, global: global},
		{traceID: "00c0ffee00c0ffee", round: 4, global: global, frame: frame},
	} {
		conn := &memConn{}
		cs := newConnStream(conn)
		if err := d.writeTo(cs); err != nil {
			f.Fatal(err)
		}
		if err := cs.writeMsg(MsgShutdown, nil); err != nil {
			f.Fatal(err)
		}
		f.Add(conn.w.Bytes(), true, true)
		f.Add(conn.w.Bytes(), false, false)
	}
	f.Add([]byte{byte(MsgShutdown)}, false, false)

	f.Fuzz(func(t *testing.T, data []byte, withPrev, withRelay bool) {
		var prev *model.StateDict
		if withPrev {
			prev = global.Clone() // a decode may leave it partly overwritten
		}
		var relay *bytes.Buffer
		if withRelay {
			relay = new(bytes.Buffer)
		}
		cs := newConnStream(&memConn{r: bytes.NewReader(data)})
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		d, done, err := readDownlink(cs, codec, prev, relay)
		runtime.ReadMemStats(&after)
		// The staged reads cost at most ~17x the bytes that arrived plus
		// one first stage each; decoding a
		// section may expand it by the compressor's ratio, which the
		// per-tensor element cap bounds. 64 MiB is far below what any
		// forged length asks for (1 GiB) and far above an honest parse.
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<20+64*uint64(len(data)) {
			t.Fatalf("parsing %d bytes allocated %d", len(data), grew)
		}
		if err != nil || done {
			return
		}
		if d.global == nil {
			t.Fatal("a downlink without a model was accepted")
		}
		for _, e := range d.global.Entries() {
			switch {
			case e.Redo != nil:
				t.Fatalf("entry %q is lent", e.Name)
			case e.DType == model.Float32 && e.Tensor == nil:
				t.Fatalf("entry %q has no tensor", e.Name)
			case e.DType != model.Float32 && e.DType != model.Int64:
				t.Fatalf("entry %q has dtype %d", e.Name, e.DType)
			}
		}
		if d.frame != nil {
			if relay == nil {
				t.Fatal("a frame was kept without a relay buffer")
			}
			again, err := decodeUpdate(codec, d.frame)
			if err != nil {
				t.Fatalf("the relayed bytes are not the frame that was decoded: %v", err)
			}
			assertSameDict(t, d.global, again)
		}
	})
}
