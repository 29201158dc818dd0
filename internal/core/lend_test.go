package core

import (
	"bytes"
	"math"
	"sync"
	"testing"

	"fedsz/internal/model"
	"fedsz/internal/nn"
)

// lendFrame compresses a model with enough lossy tensors of different
// sizes that scratch changes hands, and decodes the reference the lent
// values must match bit for bit.
func lendFrame(t *testing.T, seed int64) (frame []byte, ref *model.StateDict) {
	t.Helper()
	p, err := NewPipeline(Config{Checksum: true, Threshold: 64})
	if err != nil {
		t.Fatal(err)
	}
	frame, _, err = p.Compress(nn.MobileNetV2Mini(64, 4, seed).StateDict())
	if err != nil {
		t.Fatal(err)
	}
	if ref, err = Decompress(frame); err != nil {
		t.Fatal(err)
	}
	return frame, ref
}

func sameBits(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

func withPoisonedLoans(t *testing.T) {
	t.Helper()
	old := poisonLent
	poisonLent = true
	t.Cleanup(func() { poisonLent = old })
}

// TestEmitLendsTensors: in emit mode a lossy tensor carries the values
// the assembling decoder produces while emit runs, is gone when emit has
// returned (poisoned here, the next section's values in production), and
// its Redo handle reproduces the same bits afterwards, any number of
// times. Metadata entries are owned.
func TestEmitLendsTensors(t *testing.T) {
	withPoisonedLoans(t)
	frame, ref := lendFrame(t, 1)

	var mu sync.Mutex
	kept := map[string]model.Entry{}
	err := DecompressEntriesFrom(bytes.NewReader(frame), 4, func(e model.Entry) error {
		want, ok := ref.Get(e.Name)
		if !ok {
			t.Errorf("emitted %q is not in the frame", e.Name)
			return nil
		}
		if e.DType == model.Float32 && !sameBits(e.Tensor.Data(), want.Tensor.Data()) {
			t.Errorf("%q: lent values differ from the assembling decoder's", e.Name)
		}
		mu.Lock()
		kept[e.Name] = e
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(kept) != ref.Len() {
		t.Fatalf("%d of %d entries emitted", len(kept), ref.Len())
	}
	lent := 0
	for _, want := range ref.Entries() {
		e := kept[want.Name]
		if e.Redo == nil {
			if want.DType == model.Float32 && !sameBits(e.Tensor.Data(), want.Tensor.Data()) {
				t.Errorf("%q: owned entry changed after emit", e.Name)
			}
			continue
		}
		lent++
		for _, v := range e.Tensor.Data() {
			if !math.IsNaN(float64(v)) {
				t.Fatalf("%q: a lent tensor still reads %v after emit returned", e.Name, v)
			}
		}
		for replay := 0; replay < 2; replay++ {
			err := e.Redo.Redo(func(data []float32) error {
				if !sameBits(data, want.Tensor.Data()) {
					t.Errorf("%q: replay %d differs from the first decode", e.Name, replay)
				}
				return nil
			})
			if err != nil {
				t.Fatalf("%q: redo: %v", e.Name, err)
			}
		}
	}
	if lent == 0 {
		t.Fatal("no entry was lent")
	}
}

// TestScratchHeldUntilEmitReturns: a decode that starts while emit is
// still reading a lent tensor must not be handed that tensor's scratch.
// Every emit of the outer frame decodes a whole second frame on the same
// goroutine — the likeliest taker of a buffer returned too early — and
// then checks its own values again.
func TestScratchHeldUntilEmitReturns(t *testing.T) {
	outer, ref := lendFrame(t, 1)
	inner, _ := lendFrame(t, 2)
	err := DecompressEntriesFrom(bytes.NewReader(outer), 1, func(e model.Entry) error {
		if e.Redo == nil {
			return nil
		}
		if err := DecompressEntriesFrom(bytes.NewReader(inner), 1, func(model.Entry) error { return nil }); err != nil {
			return err
		}
		if want, _ := ref.Get(e.Name); !sameBits(e.Tensor.Data(), want.Tensor.Data()) {
			t.Errorf("%q: scratch was reused while emit was still reading it", e.Name)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestLentEntryCannotJoinADict: the one place a lent tensor could be
// kept by accident refuses it.
func TestLentEntryCannotJoinADict(t *testing.T) {
	frame, _ := lendFrame(t, 1)
	sd := model.NewStateDict()
	refused := 0
	err := DecompressEntriesFrom(bytes.NewReader(frame), 1, func(e model.Entry) error {
		if err := sd.Add(e); err != nil {
			if e.Redo == nil {
				return err
			}
			refused++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if refused == 0 {
		t.Fatal("a lent entry was added to a state dict")
	}
}
