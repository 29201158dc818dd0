package core

import (
	"bytes"
	"testing"

	"fedsz/internal/obs"
)

// TestObsCountersOnDecodePath: the per-family compress/decompress
// counters must advance when frames are encoded and decoded.
func TestObsCountersOnDecodePath(t *testing.T) {
	sd := streamStateDict(t, 77)
	p, err := NewPipeline(Config{})
	if err != nil {
		t.Fatal(err)
	}
	encIn0 := obs.Default.Value("fedsz_core_compress_in_bytes_total", LossySZ2)
	decOut0 := obs.Default.Value("fedsz_core_decompress_out_bytes_total", LossySZ2)
	frames0 := obs.Default.Value("fedsz_core_frames_decoded_total")

	frame, _, err := p.Compress(sd)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decompress(frame); err != nil {
		t.Fatal(err)
	}

	if got := obs.Default.Value("fedsz_core_compress_in_bytes_total", LossySZ2); got <= encIn0 {
		t.Errorf("compress in-bytes counter did not advance: %v -> %v", encIn0, got)
	}
	if got := obs.Default.Value("fedsz_core_decompress_out_bytes_total", LossySZ2); got <= decOut0 {
		t.Errorf("decompress out-bytes counter did not advance: %v -> %v", decOut0, got)
	}
	if got := obs.Default.Value("fedsz_core_frames_decoded_total"); got != frames0+1 {
		t.Errorf("frames decoded counter = %v, want %v", got, frames0+1)
	}
}

// TestDecodeAllocsUnchangedByObs is the allocation-regression gate on
// the streaming decode fast path: instrumentation live (the default)
// must allocate exactly as much per decode as instrumentation
// disabled — the instruments are atomic adds against pre-resolved
// counters, never map or string churn.
func TestDecodeAllocsUnchangedByObs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool is lossy under the race detector, so the two arms' counts drift")
	}
	sd := streamStateDict(t, 99)
	p, err := NewPipeline(Config{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	frame, _, err := p.Compress(sd)
	if err != nil {
		t.Fatal(err)
	}
	decode := func() {
		if _, err := DecompressFrom(bytes.NewReader(frame), 1); err != nil {
			t.Fatal(err)
		}
	}
	wasDisabled := obs.IsDisabled()
	defer obs.SetDisabled(wasDisabled)

	// Warm both arms (instrument map entries, pools) before counting.
	for _, d := range []bool{false, true} {
		obs.SetDisabled(d)
		decode()
	}

	obs.SetDisabled(false)
	withObs := testing.AllocsPerRun(20, decode)
	obs.SetDisabled(true)
	without := testing.AllocsPerRun(20, decode)

	if withObs > without {
		t.Errorf("instrumentation added allocations on the decode path: %v with obs, %v without", withObs, without)
	}
}

// TestObsRegistryServesCoreFamilies: the registry snapshot includes
// the core families after traffic, and the Prometheus rendering
// carries them (what the /metrics smoke test scrapes).
func TestObsRegistryServesCoreFamilies(t *testing.T) {
	sd := streamStateDict(t, 123)
	p, err := NewPipeline(Config{})
	if err != nil {
		t.Fatal(err)
	}
	frame, _, err := p.Compress(sd)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decompress(frame); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	obs.Default.WritePrometheus(&buf)
	text := buf.String()
	for _, want := range []string{
		`fedsz_core_compress_ns_total{family="sz2"}`,
		`fedsz_core_ratio_count{family="sz2",dir="decode"}`,
		"fedsz_core_frames_decoded_total",
	} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Errorf("Prometheus output missing %q\n%s", want, text[:min(len(text), 2000)])
		}
	}
}
