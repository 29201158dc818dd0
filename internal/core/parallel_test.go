package core

import (
	"bytes"
	"errors"
	"runtime"
	"sync"
	"testing"

	"fedsz/internal/model"
)

// parallelism levels exercised by the determinism tests: serial, a
// fixed mid-width pool, and whatever this machine runs.
func testParallelisms() []int {
	levels := []int{1, 4}
	if p := runtime.GOMAXPROCS(0); p != 1 && p != 4 {
		levels = append(levels, p)
	}
	return levels
}

// TestCompressDeterministicAcrossParallelism compresses the same
// ResNet50 and MobileNetV2 state dicts at parallelism 1, 4 and
// GOMAXPROCS and requires byte-identical bitstreams and identical
// Stats (modulo wall-clock) at every level.
func TestCompressDeterministicAcrossParallelism(t *testing.T) {
	dicts := map[string]*model.StateDict{
		"resnet50":    model.BuildStateDict(model.ResNet50(8), 42),
		"mobilenetv2": model.BuildStateDict(model.MobileNetV2(4), 42),
	}
	for name, sd := range dicts {
		sd := sd
		t.Run(name, func(t *testing.T) {
			var refBuf []byte
			var refStats Stats
			for i, par := range testParallelisms() {
				p, err := NewPipeline(Config{Parallelism: par})
				if err != nil {
					t.Fatal(err)
				}
				buf, st, err := p.Compress(sd)
				if err != nil {
					t.Fatalf("parallelism %d: %v", par, err)
				}
				st.CompressTime = 0 // wall-clock legitimately varies
				if i == 0 {
					refBuf, refStats = buf, st
					continue
				}
				if !bytes.Equal(buf, refBuf) {
					t.Errorf("parallelism %d: bitstream differs from serial (%d vs %d bytes)",
						par, len(buf), len(refBuf))
				}
				if st != refStats {
					t.Errorf("parallelism %d: stats differ:\n got %+v\nwant %+v", par, st, refStats)
				}
				// Parallel decode of the parallel bitstream round-trips.
				got, err := DecompressFrom(bytes.NewReader(buf), par)
				if err != nil {
					t.Fatalf("parallelism %d: decompress: %v", par, err)
				}
				assertDictsEqual(t, sd, got, DefaultBound)
			}
		})
	}
}

// TestDecompressParallelMatchesSerial checks the decode fan-out is
// value-identical to the serial decode path.
func TestDecompressParallelMatchesSerial(t *testing.T) {
	sd := model.BuildStateDict(model.MobileNetV2(8), 7)
	p, err := NewPipeline(Config{})
	if err != nil {
		t.Fatal(err)
	}
	buf, _, err := p.Compress(sd)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := DecompressFrom(bytes.NewReader(buf), 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := DecompressFrom(bytes.NewReader(buf), 4)
	if err != nil {
		t.Fatal(err)
	}
	assertDictsEqual(t, serial, parallel, 0)
}

// TestPipelineConcurrentReuse hammers one shared Pipeline from many
// goroutines — the FL simulation's usage pattern — and checks every
// round-trip. Run under -race, this is the concurrency-safety gate for
// the whole codec stack.
func TestPipelineConcurrentReuse(t *testing.T) {
	p, err := NewPipeline(Config{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	dicts := []*model.StateDict{
		model.BuildStateDict(model.MobileNetV2(8), 1),
		model.BuildStateDict(model.MobileNetV2(8), 2),
		model.BuildStateDict(model.ResNet50(16), 3),
	}
	want := make([][]byte, len(dicts))
	for i, sd := range dicts {
		buf, _, err := p.Compress(sd)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = buf
	}

	const goroutines = 8
	const iters = 3
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				i := (g + it) % len(dicts)
				buf, _, err := p.Compress(dicts[i])
				if err != nil {
					errc <- err
					return
				}
				if !bytes.Equal(buf, want[i]) {
					errc <- errNondeterministic
					return
				}
				if _, err := DecompressFrom(bytes.NewReader(buf), p.Config().Parallelism); err != nil {
					errc <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

var errNondeterministic = errors.New("concurrent compress produced a differing bitstream")
