package transport

import (
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"fedsz/internal/core"
	"fedsz/internal/dataset"
	"fedsz/internal/fl"
	"fedsz/internal/lossy"
	"fedsz/internal/model"
	"fedsz/internal/nn"
	"fedsz/internal/orchestrator"
)

// TestEndToEndFederation runs a real 2-client federation over TCP
// loopback with the FedSZ codec and verifies the model improves.
func TestEndToEndFederation(t *testing.T) {
	spec := dataset.FashionMNIST()
	full := spec.Generate(360, 3)
	trainSet, testSet := full.TrainTest(0.75, 4)
	shards := trainSet.Split(2)

	codec, err := fl.NewFedSZCodec(core.Config{Bound: lossy.RelBound(1e-2)})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewOrchestrated(OrchestratedConfig{MinClients: 2, Rounds: 3, Codec: codec})
	if err != nil {
		t.Fatal(err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	initial := nn.MobileNetV2Mini(spec.Dim, spec.Classes, 1).StateDict()

	var wg sync.WaitGroup
	clientErrs := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				clientErrs[i] = err
				return
			}
			defer conn.Close()
			net_ := nn.MobileNetV2Mini(spec.Dim, spec.Classes, 1)
			data := shards[i]
			clientErrs[i] = RunClient(conn, codec, func(round int, global *model.StateDict) (*model.StateDict, int, error) {
				if err := net_.LoadStateDict(global); err != nil {
					return nil, 0, err
				}
				data.Shuffle(int64(round))
				for lo := 0; lo+20 <= data.N; lo += 20 {
					x, y := data.Batch(lo, lo+20)
					net_.TrainBatch(x, y, 0.01, 0.9)
				}
				return net_.StateDict(), data.N, nil
			})
		}(i)
	}

	final, err := srv.Serve(ln, initial)
	wg.Wait()
	if err != nil {
		t.Fatalf("server: %v", err)
	}
	for i, e := range clientErrs {
		if e != nil {
			t.Fatalf("client %d: %v", i, e)
		}
	}

	eval := nn.MobileNetV2Mini(spec.Dim, spec.Classes, 1)
	if err := eval.LoadStateDict(final); err != nil {
		t.Fatal(err)
	}
	x, y := testSet.Batch(0, testSet.N)
	acc := eval.Accuracy(x, y)
	if acc <= testSet.Chance()*1.5 {
		t.Fatalf("federated accuracy %.3f did not beat chance %.3f", acc, testSet.Chance())
	}
}

// TestProtocolViolation: a connection whose first byte is not a join is
// closed, never registers, and does not stall the round for the honest
// clients.
func TestProtocolViolation(t *testing.T) {
	var stats []orchestrator.RoundStats
	srv, err := NewOrchestrated(OrchestratedConfig{
		MinClients: 2,
		Rounds:     2,
		OnRound: func(_ int, _ *model.StateDict, st orchestrator.RoundStats) {
			stats = append(stats, st)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ln := newPipeListener(3)
	defer ln.Close()
	initial := nn.MobileNetV2Mini(48, 4, 7).StateDict()

	done := make(chan error, 1)
	go func() {
		_, err := srv.Serve(ln, initial)
		done <- err
	}()

	// The violator opens with an update frame instead of a join; the
	// server must hang up on it.
	bad := ln.Dial()
	defer bad.Close()
	go func() { _, _ = bad.Write(append([]byte{byte(MsgUpdate)}, "bogus"...)) }()
	_ = bad.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := bad.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("violator's connection: read = %v, want EOF (closed by the server)", err)
	}

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn := ln.Dial()
			defer conn.Close()
			if err := RunClient(conn, nil, func(_ int, global *model.StateDict) (*model.StateDict, int, error) {
				return global, 10, nil
			}); err != nil {
				t.Errorf("client: %v", err)
			}
		}()
	}
	if err := <-done; err != nil {
		t.Fatalf("server: %v", err)
	}
	wg.Wait()
	if len(stats) != 2 {
		t.Fatalf("committed %d rounds, want 2", len(stats))
	}
	for i, st := range stats {
		if st.Sampled != 2 || st.Committed != 2 {
			t.Fatalf("round %d stats %+v, want only the two honest clients sampled and committed", i, st)
		}
	}
}

// TestRateLimitedFederation runs one round through a bandwidth-capped
// connection, verifying the netsim limiter composes with the protocol.
func TestRateLimitedFederation(t *testing.T) {
	srv, err := NewOrchestrated(OrchestratedConfig{
		MinClients:   1,
		Rounds:       1,
		BandwidthBps: 200e6, // 200 Mbps: fast enough to keep the test quick
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	initial := nn.MobileNetV2Mini(64, 4, 1).StateDict()
	done := make(chan error, 1)
	go func() {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			done <- err
			return
		}
		defer conn.Close()
		done <- RunClient(conn, nil, func(round int, global *model.StateDict) (*model.StateDict, int, error) {
			return global, 10, nil // echo the model back
		})
	}()
	final, err := srv.Serve(ln, initial)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if final.Len() != initial.Len() {
		t.Fatal("echo federation lost entries")
	}
}
