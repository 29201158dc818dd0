package orchestrator_test

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"fedsz/internal/adapt"
	"fedsz/internal/orchestrator"
)

// testCheckpoint builds a representative checkpoint: nonzero counters,
// a model with float and int entries, a bound blob, and per-client
// residuals of varying shape.
func testCheckpoint(rng *rand.Rand) *orchestrator.Checkpoint {
	return &orchestrator.Checkpoint{
		Commits: 7,
		Version: 9,
		Global:  randomDict(rng, 1),
		Bound:   []byte{1, 2, 3, 4, 5},
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
	if string(got.Bound) != string(want.Bound) {
		t.Fatalf("bound blob %x, want %x", got.Bound, want.Bound)
	}
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
// coordinator with an adaptive bound scheduler, checkpoints it,
// rebuilds a coordinator from the snapshot, and checks that counters,
// global model and the scheduled bound all survive the restart.
func TestCoordinatorCheckpointResume(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	policy, err := adapt.NewPolicy(adapt.Config{BaseBound: 1e-2, MinBound: 1e-4, MaxBound: 1e-2, EMAAlpha: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	coord, err := orchestrator.NewCoordinator(orchestrator.Config{
		Bound: policy,
		Seed:  1,
	}, randomDict(rng, 1))
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
	bound := coord.RoundBound()
	if bound <= 0 {
		t.Fatalf("scheduler produced no bound after 3 commits")
	}

	ck := coord.Checkpoint()
	if ck.Commits != 3 || ck.Version != 3 {
		t.Fatalf("checkpoint counters (%d, %d), want (3, 3)", ck.Commits, ck.Version)
	}
	if len(ck.Bound) == 0 {
		t.Fatalf("checkpoint carries no bound-scheduler state")
	}
	raw, err := orchestrator.MarshalCheckpoint(ck)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := orchestrator.UnmarshalCheckpoint(raw)
	if err != nil {
		t.Fatal(err)
	}

	policy2, err := adapt.NewPolicy(adapt.Config{BaseBound: 1e-2, MinBound: 1e-4, MaxBound: 1e-2, EMAAlpha: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	coord2, err := orchestrator.NewCoordinatorFromCheckpoint(orchestrator.Config{
		Bound: policy2,
		Seed:  1,
	}, loaded)
	if err != nil {
		t.Fatal(err)
	}
	v, g := coord2.Global()
	if v != 3 {
		t.Fatalf("resumed version %d, want 3", v)
	}
	_, wantG := coord.Global()
	dictsBitIdentical(t, wantG, g)
	if got := coord2.RoundBound(); got != bound {
		t.Fatalf("resumed bound %v, want %v", got, bound)
	}
	// The resumed schedule must keep evolving, not just echo a frozen
	// override: another commit-sized observation shifts both the
	// original and the resumed policy identically.
	policy.ObserveUpdateNorm(0.01)
	policy2.ObserveUpdateNorm(0.01)
	if coord.RoundBound() != coord2.RoundBound() {
		t.Fatalf("schedules diverged after resume: %v vs %v", coord.RoundBound(), coord2.RoundBound())
	}
}

// TestCheckpointResumeRejectsBoundStateMismatch: a snapshot carrying
// scheduler state must not silently load into a coordinator whose
// scheduler cannot restore it.
func TestCheckpointResumeRejectsBoundStateMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	ck := testCheckpoint(rng)
	ck.Commits = ck.Version // only the bound state is wrong
	if _, err := orchestrator.NewCoordinatorFromCheckpoint(orchestrator.Config{}, ck); err == nil {
		t.Fatal("checkpoint with bound state loaded into scheduler-less coordinator")
	} else if errors.Is(err, orchestrator.ErrBadCheckpoint) {
		t.Fatalf("rejected for its counters, not its bound state: %v", err)
	}
}

// TestCheckpointResumeRejectsCounterMismatch: a coordinator commits one
// model version per round, so a checkpoint whose two counters differ
// was not written by one and must not be resumed; equal counters are.
func TestCheckpointResumeRejectsCounterMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	ck := testCheckpoint(rng)
	ck.Bound = nil
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
