package transport

import (
	"errors"
	"math"
	"path/filepath"
	"sync"
	"testing"

	"fedsz/internal/fl"
	"fedsz/internal/model"
	"fedsz/internal/nn"
	"fedsz/internal/orchestrator"
)

// echoClients starts n clients that return the broadcast global
// unchanged each round, and returns a WaitGroup to join them. A client
// whose server went away without a goodbye fails its session, so the
// errors are only reported when strict.
func echoClients(t *testing.T, ln *pipeListener, codec fl.Codec, n int, strict bool) *sync.WaitGroup {
	t.Helper()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			conn := ln.Dial()
			defer conn.Close()
			if err := RunClient(conn, codec, func(round int, global *model.StateDict) (*model.StateDict, int, error) {
				return global, 10 + i, nil
			}); err != nil && strict {
				t.Errorf("client %d: %v", i, err)
			}
		}(i)
	}
	return &wg
}

// TestOrchestratedCheckpointResume stops a federation after two of
// four rounds and resumes a second server from the snapshot, for both
// ways a coordinator stops: a graceful Shutdown, and an Abort (a crash:
// no final snapshot, no goodbye), which leaves only the snapshot the
// checkpoint interval wrote after the second commit. The resumed server
// must run exactly the remaining rounds and leave a final checkpoint whose global model is bit-identical to
// the model Serve returned.
func TestOrchestratedCheckpointResume(t *testing.T) {
	for _, tc := range []struct {
		name    string
		stop    func(*Orchestrated)
		wantErr error
	}{
		{"Shutdown", (*Orchestrated).Shutdown, nil},
		{"Abort", (*Orchestrated).Abort, ErrAborted},
	} {
		t.Run(tc.name, func(t *testing.T) {
			codec := fl.PlainCodec{}
			initial := nn.MobileNetV2Mini(48, 4, 7).StateDict()
			path := filepath.Join(t.TempDir(), "coord.ckpt")

			const totalRounds = 4
			var roundsA []int
			var lastGlobalA *model.StateDict
			var srvA *Orchestrated
			srvA, err := NewOrchestrated(OrchestratedConfig{
				Codec:          codec,
				MinClients:     2,
				Rounds:         totalRounds,
				CheckpointPath: path,
				OnRound: func(round int, global *model.StateDict, st orchestrator.RoundStats) {
					roundsA = append(roundsA, round)
					lastGlobalA = global
					if round == 1 {
						tc.stop(srvA) // after the second commit
					}
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			lnA := newPipeListener(2)
			wgA := echoClients(t, lnA, codec, 2, tc.wantErr == nil)
			if _, err := srvA.Serve(lnA, initial); !errors.Is(err, tc.wantErr) {
				t.Fatalf("server A: err = %v, want %v", err, tc.wantErr)
			}
			lnA.Close()
			wgA.Wait()
			if len(roundsA) != 2 {
				t.Fatalf("server A committed rounds %v, want [0 1]", roundsA)
			}

			ck, err := orchestrator.LoadCheckpoint(path)
			if err != nil {
				t.Fatalf("load checkpoint: %v", err)
			}
			if ck.Commits != 2 {
				t.Fatalf("checkpoint commits %d, want 2", ck.Commits)
			}
			assertSameDict(t, lastGlobalA, ck.Global)

			// Resume: a fresh server and fresh clients — everything a
			// process restart loses.
			var roundsB []int
			srvB, err := NewOrchestrated(OrchestratedConfig{
				Codec:          codec,
				MinClients:     2,
				Rounds:         totalRounds,
				CheckpointPath: path,
				Resume:         ck,
				OnRound: func(round int, global *model.StateDict, st orchestrator.RoundStats) {
					roundsB = append(roundsB, round)
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			lnB := newPipeListener(2)
			defer lnB.Close()
			wgB := echoClients(t, lnB, codec, 2, true)
			final, err := srvB.Serve(lnB, initial)
			if err != nil {
				t.Fatalf("server B: %v", err)
			}
			wgB.Wait()
			if len(roundsB) != 2 || roundsB[0] != 2 || roundsB[1] != 3 {
				t.Fatalf("server B committed rounds %v, want [2 3]", roundsB)
			}

			// The final graceful-exit checkpoint records the completed run.
			ck2, err := orchestrator.LoadCheckpoint(path)
			if err != nil {
				t.Fatalf("load final checkpoint: %v", err)
			}
			if ck2.Commits != totalRounds {
				t.Fatalf("final checkpoint commits %d, want %d", ck2.Commits, totalRounds)
			}
			assertSameDict(t, final, ck2.Global)
		})
	}
}

// TestOrchestratedShutdownWhileWaiting: Shutdown before any client
// ever joins must unblock Serve, not hang it waiting for MinClients.
func TestOrchestratedShutdownWhileWaiting(t *testing.T) {
	srv, err := NewOrchestrated(OrchestratedConfig{MinClients: 3, Rounds: 2})
	if err != nil {
		t.Fatal(err)
	}
	ln := newPipeListener(1)
	defer ln.Close()
	done := make(chan error, 1)
	go func() {
		_, err := srv.Serve(ln, nn.MobileNetV2Mini(48, 4, 7).StateDict())
		done <- err
	}()
	srv.Shutdown()
	if err := <-done; err != nil {
		t.Fatalf("shutdown-while-waiting Serve: %v", err)
	}
}

// assertSameDict checks bit-identical float payloads and equal int
// payloads across two state dicts.
func assertSameDict(t *testing.T, want, got *model.StateDict) {
	t.Helper()
	if want == nil || got == nil {
		t.Fatalf("nil dict (want %v, got %v)", want != nil, got != nil)
	}
	if want.Len() != got.Len() {
		t.Fatalf("entry count %d != %d", got.Len(), want.Len())
	}
	for _, we := range want.Entries() {
		ge, ok := got.Get(we.Name)
		if !ok {
			t.Fatalf("missing entry %q", we.Name)
		}
		if we.DType == model.Int64 {
			for i := range we.Ints {
				if we.Ints[i] != ge.Ints[i] {
					t.Fatalf("entry %q int %d: %d != %d", we.Name, i, ge.Ints[i], we.Ints[i])
				}
			}
			continue
		}
		wd, gd := we.Tensor.Data(), ge.Tensor.Data()
		for i := range wd {
			if math.Float32bits(wd[i]) != math.Float32bits(gd[i]) {
				t.Fatalf("entry %q element %d: %v != %v", we.Name, i, gd[i], wd[i])
			}
		}
	}
}
