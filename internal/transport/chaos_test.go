package transport

import (
	"math"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fedsz/internal/core"
	"fedsz/internal/fl"
	"fedsz/internal/lossy"
	"fedsz/internal/model"
	"fedsz/internal/netsim"
	"fedsz/internal/nn"
	"fedsz/internal/orchestrator"
)

// dialErr is pipeListener.Dial that fails once the listener closes,
// so resilient clients spinning in their retry loop drain out when
// the test tears the federation down.
func (l *pipeListener) dialErr() (net.Conn, error) {
	server, client := net.Pipe()
	select {
	case l.conns <- server:
		return client, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

// shiftDict returns a copy of sd with delta added to every float
// element.
func shiftDict(sd *model.StateDict, delta float32) *model.StateDict {
	out := model.NewStateDict()
	for _, e := range sd.Entries() {
		if e.DType != model.Float32 || e.Tensor == nil {
			_ = out.Add(e)
			continue
		}
		t := e.Tensor.Clone()
		data := t.Data()
		for i := range data {
			data[i] += delta
		}
		_ = out.Add(model.Entry{Name: e.Name, DType: e.DType, Tensor: t})
	}
	return out
}

// TestOrchestratedChaosZeroPoison is the integrity acceptance test:
// clients push updates through bit-flipping, connection-killing chaos
// conns into a checksummed FedSZ federation. Corrupt frames must be
// quarantined (DropCorrupt observed), yet no flipped bit may ever
// fold into the global model — every committed round's shift stays
// inside the convex hull of the honest per-client shifts, and the
// model stays finite.
func TestOrchestratedChaosZeroPoison(t *testing.T) {
	const nClients = 3
	deltas := []float32{0.01, 0.02, 0.03}
	mkCodec := func() fl.Codec {
		c, err := fl.NewFedSZCodec(core.Config{
			Lossy:    core.LossySZ2,
			Bound:    lossy.RelBound(1e-3),
			Checksum: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	initial := nn.MobileNetV2Mini(48, 4, 7).StateDict()

	// Calibrate the per-byte flip rate to hit roughly half of all
	// update frames, so corruption is frequent but rounds still commit.
	probe, _, err := encodeUpdate(mkCodec(), initial)
	if err != nil {
		t.Fatal(err)
	}
	flipRate := 0.5 / float64(len(probe))

	var mu sync.Mutex
	drops := map[orchestrator.DropReason]int{}
	var rounds int32
	var srv *Orchestrated
	srv, err = NewOrchestrated(OrchestratedConfig{
		Codec:      mkCodec(),
		MinClients: nClients,
		Rounds:     60, // upper cap; Shutdown ends the run early
		OnDrop: func(id string, reason orchestrator.DropReason) {
			mu.Lock()
			drops[reason]++
			mu.Unlock()
		},
		OnRound: func(round int, global *model.StateDict, st orchestrator.RoundStats) {
			atomic.StoreInt32(&rounds, int32(round+1))
			mu.Lock()
			corrupt := drops[orchestrator.DropCorrupt]
			mu.Unlock()
			if round+1 >= 4 && corrupt >= 2 {
				srv.Shutdown()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ln := newPipeListener(32)

	var wg sync.WaitGroup
	for i := 0; i < nClients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var attempt int64
			codec := mkCodec()
			err := RunResilientClient(ClientConfig{
				Dial: func() (net.Conn, error) {
					conn, err := ln.dialErr()
					if err != nil {
						return nil, err
					}
					n := atomic.AddInt64(&attempt, 1)
					return netsim.Chaos(conn, netsim.FaultConfig{
						BitFlipRate: flipRate,
						KillRate:    0.02,
						Seed:        int64(i)*1000 + n,
					}), nil
				},
				Codec: codec,
				Train: func(round int, global *model.StateDict) (*model.StateDict, int, error) {
					return shiftDict(global, deltas[i]), 10, nil
				},
				MaxRetries:  8,
				BaseBackoff: time.Millisecond,
				MaxBackoff:  20 * time.Millisecond,
				// net.Pipe writes are synchronous: a conn dialed into the
				// accept queue right as the server exits would block its
				// join write forever without a deadline.
				WriteTimeout: 500 * time.Millisecond,
				Seed:         int64(i),
			})
			if err != nil {
				// Tolerated: a client caught mid-reconnect at teardown
				// exhausts its dial budget against the closed listener.
				t.Logf("client %d exited with %v", i, err)
			}
		}(i)
	}

	final, err := srv.Serve(ln, initial)
	ln.Close()
	if err != nil {
		t.Fatalf("server: %v", err)
	}
	wg.Wait()

	r := int(atomic.LoadInt32(&rounds))
	mu.Lock()
	corrupt := drops[orchestrator.DropCorrupt]
	mu.Unlock()
	t.Logf("rounds %d, drops %v", r, drops)
	if r < 4 {
		t.Fatalf("only %d rounds committed", r)
	}
	if corrupt < 2 {
		t.Fatalf("chaos injected but only %d corrupt-frame quarantines observed", corrupt)
	}

	// Zero poison: every element's total shift lies inside the hull of
	// the honest shifts (r·minδ .. r·maxδ) with lossy-error slack — a
	// single folded bit flip in an exponent or sign bit lands far
	// outside, and NaN/Inf fail outright.
	slack := float64(r) * 0.005
	lo, hi := float64(r)*0.01-slack, float64(r)*0.03+slack
	for _, e := range final.Entries() {
		if e.DType != model.Float32 || e.Tensor == nil {
			continue
		}
		ie, _ := initial.Get(e.Name)
		fd, id := e.Tensor.Data(), ie.Tensor.Data()
		for j := range fd {
			diff := float64(fd[j]) - float64(id[j])
			if math.IsNaN(diff) || math.IsInf(diff, 0) || diff < lo || diff > hi {
				t.Fatalf("poisoned element: %s[%d] shifted %v after %d rounds, honest hull [%v, %v]",
					e.Name, j, diff, r, lo, hi)
			}
		}
	}
}
