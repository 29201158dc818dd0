package transport

import (
	"bytes"
	"net"
	"runtime"
	"sync"
	"testing"
	"unsafe"

	"fedsz/internal/core"
	"fedsz/internal/fl"
	"fedsz/internal/model"
	"fedsz/internal/orchestrator"
)

// nudge is an in-place local step: it moves a few elements of global
// and hands the same dict back as the update.
func nudge(global *model.StateDict, round, client int) *model.StateDict {
	for i := 0; i < global.Len(); i++ {
		if e := global.At(i); e.DType == model.Float32 {
			data := e.Tensor.Data()
			data[(round+client)%len(data)] += 1e-3
		}
	}
	return global
}

// TestRoundAllocationBudget keeps the per-round allocation of a
// federation where the buffer-ownership rules put it: the tier's float64
// sums and the leaves' model dicts are allocated once, not per round; a
// FedSZ uplink is decoded into the decoder's scratch and folded from
// there; and a plain update or a region's float64 partial, which the
// aggregator references until commit, lands in a buffer the tier owns
// and reuses (tier.landings). So the tier allocates no tensor of any
// uplink. What a round still allocates is the committed global, the
// encoders' scratch and output, and the edge's copy of each downlink.
func TestRoundAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	const (
		clients = 2
		warmup  = 3
		timed   = 10
	)
	fedsz, err := fl.NewFedSZCodec(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		codec  fl.Codec
		edge   bool
		bps    float64 // the coordinator's declared link rate; > 0 puts a FedSZ tier on the frame downlink
		budget float64 // per round, in model sizes
	}{
		// Before PR 18: 7.35x flat, 12.6x through an edge.
		// Before the landings: 3.21x and 6.40x, measured since 1.07x and
		// 2.17x. A plain update is 16/15 of the model, so either budget
		// fails as soon as one update's tensors are allocated per round.
		{name: "flat", codec: fl.PlainCodec{}, budget: 1.5},
		{name: "edge", codec: fl.PlainCodec{}, edge: true, budget: 3.0},
		// Before PR 21: 4.17x flat, 7.42x through an edge; measured since
		// 2.0-2.3x and, with the coordinator's partial landing too,
		// 3.1-3.4x (the spread is sync.Pool scratch the GC drops between
		// uses). The float64 partial is 32/15 of the model, one decoded
		// uplink 16/15.
		{name: "fedsz-flat", codec: fedsz, budget: 3.0},
		{name: "fedsz-edge", codec: fedsz, edge: true, budget: 4.0},
		// The frame downlink adds an encode on the coordinator and a decode
		// on each leaf and must add no model: the tier's frame buffer is
		// reused and the leaves decode into the dict they hold.
		{name: "fedsz-flat-framed", codec: fedsz, bps: 200e6, budget: 3.0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Half-width MobileNetV2 (5 MB): large enough that per-entry
			// bookkeeping (~0.3 MB a round) stays a small part of the ratio.
			initial := model.BuildStateDict(model.MobileNetV2(2), 42)
			var alloc0, alloc1 uint64
			readAlloc := func() uint64 {
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				return ms.TotalAlloc
			}
			minClients := clients
			if tc.edge {
				minClients = 1
			}
			srv, err := NewOrchestrated(OrchestratedConfig{
				Codec:        tc.codec,
				MinClients:   minClients,
				Rounds:       warmup + timed,
				BandwidthBps: tc.bps,
				OnRound: func(round int, _ *model.StateDict, _ orchestrator.RoundStats) {
					switch round + 1 {
					case warmup:
						alloc0 = readAlloc()
					case warmup + timed:
						alloc1 = readAlloc()
					}
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			coordLn := tcpListener(t)
			leafAddr := coordLn.Addr().String()

			var wg sync.WaitGroup
			if tc.edge {
				edgeLn := tcpListener(t)
				edge, err := NewEdge(EdgeConfig{
					Upstream:   dialTCP(coordLn.Addr().String()),
					Codec:      tc.codec,
					MinClients: clients,
					Checksum:   true,
				})
				if err != nil {
					t.Fatal(err)
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					defer edgeLn.Close()
					if err := edge.Serve(edgeLn); err != nil {
						t.Errorf("edge: %v", err)
					}
				}()
				leafAddr = edgeLn.Addr().String()
			}
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					conn, err := net.Dial("tcp", leafAddr)
					if err != nil {
						t.Errorf("client dial: %v", err)
						return
					}
					defer conn.Close()
					err = RunClient(conn, tc.codec, func(round int, global *model.StateDict) (*model.StateDict, int, error) {
						return nudge(global, round, c), 100 + c, nil
					})
					if err != nil {
						t.Errorf("client %d: %v", c, err)
					}
				}(c)
			}
			if _, err := srv.Serve(coordLn, initial); err != nil {
				t.Fatalf("server: %v", err)
			}
			wg.Wait()

			size := float64(initial.SizeBytes())
			perRound := float64(alloc1-alloc0) / timed / size
			t.Logf("%.2fx the model (%.1f MB) allocated per round, budget %.1fx", perRound, perRound*size/1e6, tc.budget)
			if perRound > tc.budget {
				t.Fatalf(`%s: a round of %d clients allocates %.2fx the %.1f MB model, budget %.1fx. Per round, in model sizes:
  2.0x  float64 sums           — must be 0: the tier owns one aggregator (Aggregator.NextRound), emptied in place
  %.1fx  leaves' downlink dicts  — must be 0: readDownlink decodes into the dict the session holds (UnmarshalStateDictInto)
  %.1fx  decoded FedSZ uplinks   — must be 0: sections decode into the decoder's scratch (core.lentScratch, resident, at most one tensor per decode worker) and the Contributor keeps redo handles, not tensors
  %.1fx  plain updates held until commit — must be 0: each lands in a landing the tier owns (tier.landings, resident: one per last round's participant)
  2.1x  the coordinator's float64 partial from an edge, held until commit — must be 0: it lands the same way
  %d x 1/ratio  a FedSZ update's verified compressed sections, held until commit — expected (what Abort replays)
  1.0x  Finalize's committed global — expected (handed out as an immutable snapshot)
  the rest: encoder scratch and output on the leaves, and at an edge the downlink it decodes (16/15)`,
					tc.name, clients, perRound, size/1e6, tc.budget, clients*16.0/15, clients*16.0/15, clients*16.0/15, clients)
			}
		})
	}
}

// TestClientDecodesDownlinkInPlace: within a session every round's
// global arrives in the tensors the first round's did, carrying the
// model the coordinator committed.
func TestClientDecodesDownlinkInPlace(t *testing.T) {
	const rounds = 4
	initial := model.BuildStateDict(model.MobileNetV2(32), 7)
	committed := []*model.StateDict{initial}
	srv, err := NewOrchestrated(OrchestratedConfig{
		MinClients: 1,
		Rounds:     rounds,
		OnRound: func(_ int, global *model.StateDict, _ orchestrator.RoundStats) {
			committed = append(committed, global)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ln := newPipeListener(1)
	defer ln.Close()

	var storage []unsafe.Pointer
	done := make(chan error, 1)
	go func() {
		conn := ln.Dial()
		defer conn.Close()
		done <- RunClient(conn, nil, func(round int, global *model.StateDict) (*model.StateDict, int, error) {
			// The broadcast of round r follows OnRound of round r-1 on the
			// coordinator's goroutine, and the pipe orders it before this read.
			assertSameDict(t, committed[round], global)
			var ptrs []unsafe.Pointer
			for i := 0; i < global.Len(); i++ {
				if e := global.At(i); e.DType == model.Float32 {
					ptrs = append(ptrs, unsafe.Pointer(&e.Tensor.Data()[0]))
				} else {
					ptrs = append(ptrs, unsafe.Pointer(&e.Ints[0]))
				}
			}
			if round == 0 {
				storage = ptrs
			}
			for i, p := range ptrs {
				if p != storage[i] {
					t.Errorf("round %d: entry %d of the global was reallocated", round, i)
				}
			}
			return nudge(global, round, 0), 10, nil
		})
	}()
	if _, err := srv.Serve(ln, initial); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if len(committed) != rounds+1 {
		t.Fatalf("%d rounds committed, want %d", len(committed)-1, rounds)
	}
}

// TestLeafDecodesFrameDownlinkInPlace: a leaf on the frame downlink
// holds one model for the whole session. Every round's frame is decoded
// into the tensors the first round's was, and what a steady-state
// downlink allocates in total is less than the model's largest tensor —
// so it made no allocation of that size: no tensor, no decoded copy.
func TestLeafDecodesFrameDownlinkInPlace(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	const rounds = 3
	// An 871 KB model: what a downlink allocates besides tensors (the
	// metadata blob, the dict's index, ~0.3 MB at any width) stays well
	// under its 640 KB classifier.
	run := downlinkFed{codec: staticFedSZ(t), coordBps: 100e6, rounds: rounds, div: 8}.run(t)
	// One leaf's recorded downlinks, minus the closing MsgShutdown, replayed
	// over and over through the leaf's reader.
	const laps = 8
	rx := run.leaves[0].rx.Bytes()
	stream := bytes.Repeat(rx[:len(rx)-1], laps)
	cs := newConnStream(&memConn{r: bytes.NewReader(stream)})
	codec := staticFedSZ(t)()

	largest := 0
	for _, e := range run.committed[0].Entries() {
		largest = max(largest, e.SizeBytes())
	}
	var global *model.StateDict
	var first []unsafe.Pointer
	var before, after runtime.MemStats
	for i := 0; i < laps*rounds; i++ {
		if i == rounds { // the first lap warmed the pools
			runtime.ReadMemStats(&before)
		}
		down, done, err := readDownlink(cs, codec, global, nil)
		if err != nil || done {
			t.Fatalf("replayed downlink %d: done %v, err %v", i, done, err)
		}
		global = down.global
		for j := 0; j < global.Len(); j++ {
			var p unsafe.Pointer
			if e := global.At(j); e.DType == model.Float32 {
				p = unsafe.Pointer(&e.Tensor.Data()[0])
			} else {
				p = unsafe.Pointer(&e.Ints[0])
			}
			if i == 0 {
				first = append(first, p)
			} else if p != first[j] {
				t.Fatalf("downlink %d: entry %d of the global was reallocated", i, j)
			}
		}
	}
	runtime.ReadMemStats(&after)
	assertSameDict(t, run.received[0][rounds-1], global)
	perDownlink := int(after.TotalAlloc-before.TotalAlloc) / ((laps - 1) * rounds)
	t.Logf("%d B allocated per frame downlink of a %d B model (largest tensor %d B)", perDownlink, run.committed[0].SizeBytes(), largest)
	if perDownlink >= largest {
		t.Fatalf("a frame downlink allocates %d B on the leaf, the largest tensor is %d B", perDownlink, largest)
	}
}
