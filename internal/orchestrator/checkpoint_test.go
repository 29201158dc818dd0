package orchestrator_test

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"fedsz/internal/core"
	"fedsz/internal/model"
	"fedsz/internal/orchestrator"
	"fedsz/internal/tensor"
)

// testCheckpoint builds a representative checkpoint: a nonzero commit
// counter and a model with float and int entries.
func testCheckpoint(rng *rand.Rand) *orchestrator.Checkpoint {
	return &orchestrator.Checkpoint{Commits: 7, Global: randomDict(rng, 1)}
}

func checkpointsEqual(t *testing.T, want, got *orchestrator.Checkpoint) {
	t.Helper()
	if got.Commits != want.Commits {
		t.Fatalf("commits %d, want %d", got.Commits, want.Commits)
	}
	dictsBitIdentical(t, want.Global, got.Global)
}

// uv is the minimal uvarint encoding of v.
func uv(v uint64) []byte { return binary.AppendUvarint(nil, v) }

// sealCheckpoint lays out an FSCK v1 file from its body fields: magic
// and version, the fields in order, and the CRC32C trailer over them.
func sealCheckpoint(fields ...[]byte) []byte {
	raw := append([]byte("FSCK"), 1)
	for _, f := range fields {
		raw = append(raw, f...)
	}
	return binary.BigEndian.AppendUint32(raw, crc32.Checksum(raw, crc32.MakeTable(crc32.Castagnoli)))
}

// TestCheckpointRoundTrip marshals a checkpoint, parses it back, and
// re-marshals the parse: the parse must match the original field for
// field and the two encodings must be byte-identical.
func TestCheckpointRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	ck := testCheckpoint(rng)
	raw, err := orchestrator.MarshalCheckpoint(ck)
	if err != nil {
		t.Fatal(err)
	}
	got, err := orchestrator.UnmarshalCheckpoint(raw)
	if err != nil {
		t.Fatal(err)
	}
	checkpointsEqual(t, ck, got)
	raw2, err := orchestrator.MarshalCheckpoint(got)
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != string(raw2) {
		t.Fatalf("re-marshal not byte-identical: %d vs %d bytes", len(raw), len(raw2))
	}
}

// TestCheckpointSaveLoad exercises the atomic file path: save, load,
// compare; the temp file must not linger.
func TestCheckpointSaveLoad(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	ck := testCheckpoint(rng)
	dir := t.TempDir()
	path := filepath.Join(dir, "coord.ckpt")
	if err := orchestrator.SaveCheckpoint(path, ck); err != nil {
		t.Fatal(err)
	}
	// Overwrite: a second save must atomically replace the first.
	ck.Commits = 8
	if err := orchestrator.SaveCheckpoint(path, ck); err != nil {
		t.Fatal(err)
	}
	got, err := orchestrator.LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	checkpointsEqual(t, ck, got)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("checkpoint dir holds %d entries, want just the snapshot", len(entries))
	}
}

// TestCheckpointDetectsCorruption flips every byte of a snapshot in
// turn: each mutation must surface as ErrBadCheckpoint (or at minimum
// an error), never as a silently different resume state.
func TestCheckpointDetectsCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	raw, err := orchestrator.MarshalCheckpoint(testCheckpoint(rng))
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(raw); off++ {
		mut := append([]byte(nil), raw...)
		mut[off] ^= 0x41
		if _, err := orchestrator.UnmarshalCheckpoint(mut); !errors.Is(err, orchestrator.ErrBadCheckpoint) {
			t.Fatalf("byte %d flipped: err = %v, want ErrBadCheckpoint", off, err)
		}
	}
	for cut := 0; cut < len(raw); cut += 7 {
		if _, err := orchestrator.UnmarshalCheckpoint(raw[:cut]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", cut)
		}
	}
}

// TestCoordinatorCheckpointResume runs a few rounds on a live
// coordinator, checkpoints it, rebuilds a coordinator from the
// snapshot, and checks that the counters and the global model survive
// the restart.
func TestCoordinatorCheckpointResume(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	coord, err := orchestrator.NewCoordinator(orchestrator.Config{Seed: 1}, randomDict(rng, 1))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		id := fmt.Sprintf("c%02d", i)
		if err := coord.Join(id); err != nil {
			t.Fatal(err)
		}
	}
	for r := 0; r < 3; r++ {
		round, err := coord.StartRound()
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range round.Participants() {
			if err := round.Submit(id, randomDict(rng, float32(1)/float32(r+1)), 1); err != nil {
				t.Fatal(err)
			}
		}
		if _, _, err := round.Commit(); err != nil {
			t.Fatal(err)
		}
	}

	ck := coord.Checkpoint()
	if ck.Commits != 3 {
		t.Fatalf("checkpoint commits %d, want 3", ck.Commits)
	}
	raw, err := orchestrator.MarshalCheckpoint(ck)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := orchestrator.UnmarshalCheckpoint(raw)
	if err != nil {
		t.Fatal(err)
	}
	coord2, err := orchestrator.NewCoordinatorFromCheckpoint(orchestrator.Config{Seed: 1}, loaded)
	if err != nil {
		t.Fatal(err)
	}
	v, g := coord2.Global()
	if v != 3 {
		t.Fatalf("resumed version %d, want 3", v)
	}
	_, wantG := coord.Global()
	dictsBitIdentical(t, wantG, g)
}

// TestCheckpointResumeRejectsBoundStateMismatch: the FSCK slot that
// held a bound scheduler's state is always written empty, and a
// snapshot whose slot is not empty carries state nothing can restore,
// so it must not load.
func TestCheckpointResumeRejectsBoundStateMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	ck := testCheckpoint(rng)
	raw, err := orchestrator.MarshalCheckpoint(ck)
	if err != nil {
		t.Fatal(err)
	}
	// The slot follows magic, version, both counter copies and the global.
	global, err := core.MarshalStateDict(ck.Global)
	if err != nil {
		t.Fatal(err)
	}
	at := len("FSCK") + 1 + 2*len(uv(uint64(ck.Commits))) + len(uv(uint64(len(global)))) + len(global)
	if raw[at] != 0 {
		t.Fatalf("reserved slot at byte %d reads %d, want an empty blob", at, raw[at])
	}
	forged := append(append(append([]byte(nil), raw[:at]...), 5, 1, 2, 3, 4, 5), raw[at+1:len(raw)-4]...)
	forged = binary.BigEndian.AppendUint32(forged, crc32.Checksum(forged, crc32.MakeTable(crc32.Castagnoli)))
	if _, err := orchestrator.UnmarshalCheckpoint(forged); !errors.Is(err, orchestrator.ErrBadCheckpoint) {
		t.Fatalf("checkpoint with bound state loaded: err = %v, want ErrBadCheckpoint", err)
	}
}

// TestCheckpointResumeRejectsCounterMismatch: a coordinator commits one
// model version per round and the file holds the counter twice, so a
// checkpoint whose two copies differ was not written by one and must
// not load; equal copies resume at that version.
func TestCheckpointResumeRejectsCounterMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	ck := testCheckpoint(rng)
	global, err := core.MarshalStateDict(ck.Global)
	if err != nil {
		t.Fatal(err)
	}
	forged := sealCheckpoint(uv(7), uv(9), uv(uint64(len(global))), global, uv(0), uv(0))
	if _, err := orchestrator.UnmarshalCheckpoint(forged); !errors.Is(err, orchestrator.ErrBadCheckpoint) {
		t.Fatalf("counters (7, 9) loaded with error %v, want ErrBadCheckpoint", err)
	}
	loaded, err := orchestrator.UnmarshalCheckpoint(sealCheckpoint(uv(9), uv(9), uv(uint64(len(global))), global, uv(0), uv(0)))
	if err != nil {
		t.Fatal(err)
	}
	coord, err := orchestrator.NewCoordinatorFromCheckpoint(orchestrator.Config{}, loaded)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := coord.Global(); v != 9 {
		t.Fatalf("resumed version %d, want 9", v)
	}
	if got := coord.Checkpoint(); got.Commits != 9 {
		t.Fatalf("re-checkpoint commits %d, want 9", got.Commits)
	}
	if err := coord.Join("c00"); err != nil {
		t.Fatal(err)
	}
	round, err := coord.StartRound()
	if err != nil {
		t.Fatal(err)
	}
	if round.Number() != 9 || round.Version() != 9 {
		t.Fatalf("first resumed round numbered %d at version %d, want both 9", round.Number(), round.Version())
	}
}

// TestCheckpointRejectsForgedLayout: blobs with a valid CRC but a body
// no writer produces — a residual section, bytes after the last
// section, a counter past int, a non-minimal varint, a global model
// with bytes after it — are ErrBadCheckpoint, while the canonical
// layout of the same fields is exactly what MarshalCheckpoint writes.
func TestCheckpointRejectsForgedLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	ck := testCheckpoint(rng)
	raw, err := orchestrator.MarshalCheckpoint(ck)
	if err != nil {
		t.Fatal(err)
	}
	global, err := core.MarshalStateDict(ck.Global)
	if err != nil {
		t.Fatal(err)
	}
	g := uv(uint64(len(global)))
	if canon := sealCheckpoint(uv(7), uv(7), g, global, uv(0), uv(0)); string(canon) != string(raw) {
		t.Fatal("MarshalCheckpoint does not write the documented FSCK v1 layout")
	}
	tooBig := uv(uint64(math.MaxInt) + 1)
	for name, forged := range map[string][]byte{
		"residual count 2^63":  sealCheckpoint(uv(7), uv(7), g, global, uv(0), uv(1<<63)),
		"residual count 1":     sealCheckpoint(uv(7), uv(7), g, global, uv(0), uv(1)),
		"trailing byte":        sealCheckpoint(uv(7), uv(7), g, global, uv(0), uv(0), []byte{0}),
		"counter past int":     sealCheckpoint(tooBig, tooBig, g, global, uv(0), uv(0)),
		"non-minimal counter":  sealCheckpoint([]byte{0x87, 0x00}, []byte{0x87, 0x00}, g, global, uv(0), uv(0)),
		"global length 2^64-1": sealCheckpoint(uv(7), uv(7), uv(math.MaxUint64), global, uv(0), uv(0)),
		"byte after global":    sealCheckpoint(uv(7), uv(7), uv(uint64(len(global)+1)), global, []byte{0}, uv(0), uv(0)),
	} {
		if _, err := orchestrator.UnmarshalCheckpoint(forged); !errors.Is(err, orchestrator.ErrBadCheckpoint) {
			t.Errorf("%s: err = %v, want ErrBadCheckpoint", name, err)
		}
	}
}

// FuzzUnmarshalCheckpoint: the checkpoint reader never panics on any
// blob, and any blob it accepts re-marshals to exactly the same bytes.
// Each input is tried as given and with its trailer re-sealed over the
// rest, so mutations reach the parser past the CRC.
func FuzzUnmarshalCheckpoint(f *testing.F) {
	sd := model.NewStateDict()
	w, err := tensor.FromData([]float32{0.5, -1, 3e-7, 0}, 2, 2)
	if err != nil {
		f.Fatal(err)
	}
	if err := sd.Add(model.Entry{Name: "fc.weight", DType: model.Float32, Tensor: w}); err != nil {
		f.Fatal(err)
	}
	if err := sd.Add(model.Entry{Name: "steps", DType: model.Int64, Ints: []int64{3}}); err != nil {
		f.Fatal(err)
	}
	raw, err := orchestrator.MarshalCheckpoint(&orchestrator.Checkpoint{Commits: 3, Global: sd})
	if err != nil {
		f.Fatal(err)
	}
	global, err := core.MarshalStateDict(sd)
	if err != nil {
		f.Fatal(err)
	}
	g := uv(uint64(len(global)))
	f.Add(raw)
	f.Add(raw[:len(raw)/2])
	f.Add(sealCheckpoint(uv(3), uv(3), g, global, uv(0), uv(1<<63)))
	f.Add(sealCheckpoint(uv(3), uv(3), g, global, uv(0), uv(0), []byte{0}))
	f.Fuzz(func(t *testing.T, blob []byte) {
		check := func(blob []byte) {
			ck, err := orchestrator.UnmarshalCheckpoint(blob)
			if err != nil {
				if !errors.Is(err, orchestrator.ErrBadCheckpoint) {
					t.Fatalf("rejected with %v, want ErrBadCheckpoint", err)
				}
				return
			}
			again, err := orchestrator.MarshalCheckpoint(ck)
			if err != nil {
				t.Fatalf("accepted checkpoint does not re-marshal: %v", err)
			}
			if string(again) != string(blob) {
				t.Fatalf("accepted %d bytes re-marshal to %d different ones", len(blob), len(again))
			}
		}
		check(blob)
		if len(blob) > 4 {
			body := blob[:len(blob)-4]
			check(binary.BigEndian.AppendUint32(append([]byte(nil), body...), crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli))))
		}
	})
}
