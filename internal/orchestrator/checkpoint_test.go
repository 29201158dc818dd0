package orchestrator_test

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"fedsz/internal/core"
	"fedsz/internal/orchestrator"
)

// testCheckpoint builds a representative checkpoint: nonzero counters,
// a model with float and int entries, and per-client residuals of
// varying shape.
func testCheckpoint(rng *rand.Rand) *orchestrator.Checkpoint {
	return &orchestrator.Checkpoint{
		Commits: 7,
		Version: 9,
		Global:  randomDict(rng, 1),
		Residuals: map[string]map[string][]float32{
			"client-0001": {
				"conv1.weight": {0.25, -1.5, 3e-7},
				"fc.bias":      {0},
			},
			"client-0002": {
				"conv1.weight": {-0.125},
			},
			"client-0003": {},
		},
	}
}

func checkpointsEqual(t *testing.T, want, got *orchestrator.Checkpoint) {
	t.Helper()
	if got.Commits != want.Commits || got.Version != want.Version {
		t.Fatalf("counters (%d, %d), want (%d, %d)", got.Commits, got.Version, want.Commits, want.Version)
	}
	dictsBitIdentical(t, want.Global, got.Global)
	if len(got.Residuals) != len(want.Residuals) {
		t.Fatalf("residual clients %d, want %d", len(got.Residuals), len(want.Residuals))
	}
	for id, wres := range want.Residuals {
		gres, ok := got.Residuals[id]
		if !ok {
			t.Fatalf("missing residual client %q", id)
		}
		if len(gres) != len(wres) {
			t.Fatalf("client %q tensors %d, want %d", id, len(gres), len(wres))
		}
		for name, wdata := range wres {
			gdata := gres[name]
			if len(gdata) != len(wdata) {
				t.Fatalf("client %q tensor %q len %d, want %d", id, name, len(gdata), len(wdata))
			}
			for i := range wdata {
				if gdata[i] != wdata[i] {
					t.Fatalf("client %q tensor %q[%d] = %v, want %v", id, name, i, gdata[i], wdata[i])
				}
			}
		}
	}
}

// TestCheckpointRoundTrip marshals a checkpoint, parses it back, and
// re-marshals the parse: the parse must match the original field for
// field and the two encodings must be byte-identical (the format
// sorts map keys, so encoding is deterministic).
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
	if ck.Commits != 3 || ck.Version != 3 {
		t.Fatalf("checkpoint counters (%d, %d), want (3, 3)", ck.Commits, ck.Version)
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
	// The slot follows magic, version, both counters and the global.
	global, err := core.MarshalStateDict(ck.Global)
	if err != nil {
		t.Fatal(err)
	}
	at := len("FSCK") + 1
	at += len(binary.AppendUvarint(nil, uint64(ck.Commits)))
	at += len(binary.AppendUvarint(nil, uint64(ck.Version)))
	at += len(binary.AppendUvarint(nil, uint64(len(global)))) + len(global)
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
// model version per round, so a checkpoint whose two counters differ
// was not written by one and must not be resumed; equal counters are.
func TestCheckpointResumeRejectsCounterMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	ck := testCheckpoint(rng)
	_, err := orchestrator.NewCoordinatorFromCheckpoint(orchestrator.Config{}, ck)
	if !errors.Is(err, orchestrator.ErrBadCheckpoint) {
		t.Fatalf("counters (%d, %d) resumed with error %v, want ErrBadCheckpoint", ck.Commits, ck.Version, err)
	}
	ck.Commits = ck.Version
	coord, err := orchestrator.NewCoordinatorFromCheckpoint(orchestrator.Config{}, ck)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := coord.Global(); v != ck.Version {
		t.Fatalf("resumed version %d, want %d", v, ck.Version)
	}
	if got := coord.Checkpoint(); got.Commits != ck.Version || got.Version != ck.Version {
		t.Fatalf("re-checkpoint counters (%d, %d), want (%d, %d)", got.Commits, got.Version, ck.Version, ck.Version)
	}
	if err := coord.Join("c00"); err != nil {
		t.Fatal(err)
	}
	round, err := coord.StartRound()
	if err != nil {
		t.Fatal(err)
	}
	if round.Number() != ck.Version || round.Version() != ck.Version {
		t.Fatalf("first resumed round numbered %d at version %d, want both %d", round.Number(), round.Version(), ck.Version)
	}
}
