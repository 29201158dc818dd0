package transport

import (
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fedsz/internal/core"
	"fedsz/internal/fl"
	"fedsz/internal/lossy"
	"fedsz/internal/model"
	"fedsz/internal/nn"
	"fedsz/internal/obs"
	"fedsz/internal/orchestrator"
)

// TestRoundFaults drives every per-member fault through both sinks of
// the round engine — members joined directly to the coordinator, and
// members behind an edge that forwards to it — and asserts the same
// thing at either tier: the faulty member is withdrawn with the same
// reason, and nothing of it reaches the committed global. One fault
// strikes on the way down, with the frame downlink on: the member hangs
// up in the middle of the global's frame.
//
// The survivors send different updates with different weights and the
// faulty member's update is heavily weighted poison, so the committed
// global equals fl.FedAvg of the survivors bit for bit only if neither
// the poison's sums nor its weight stayed in the aggregate: the total
// weight is exactly the survivors'. (Two addends commute exactly in
// float64, so arrival order and the extra tier do not show.)
func TestRoundFaults(t *testing.T) {
	codec, err := fl.NewFedSZCodec(core.Config{Bound: lossy.RelBound(1e-3), Checksum: true})
	if err != nil {
		t.Fatal(err)
	}
	initial := nn.MobileNetV2Mini(48, 4, 7).StateDict()
	upds := []*model.StateDict{nn.MobileNetV2Mini(48, 4, 8).StateDict(), nn.MobileNetV2Mini(48, 4, 10).StateDict()}
	weights := []int{10, 11}
	poison, _, err := codec.Encode(nn.MobileNetV2Mini(48, 4, 9).StateDict())
	if err != nil {
		t.Fatal(err)
	}
	// What the aggregating tier decodes from each survivor.
	decoded := make([]*model.StateDict, len(upds))
	for i, u := range upds {
		buf, _, err := codec.Encode(u)
		if err != nil {
			t.Fatal(err)
		}
		if decoded[i], err = codec.Decode(buf); err != nil {
			t.Fatal(err)
		}
	}
	want, err := fl.FedAvg(decoded, weights)
	if err != nil {
		t.Fatal(err)
	}

	// sendUpdate writes a MsgUpdate claiming 100 samples whose body is
	// the given bytes.
	sendUpdate := func(cs *connStream, body ...[]byte) {
		_ = cs.writeMsg(MsgUpdate, func(w io.Writer) error {
			if _, err := w.Write([]byte{100}); err != nil { // sample count uvarint
				return err
			}
			for _, b := range body {
				if _, err := w.Write(b); err != nil {
					return err
				}
			}
			return nil
		})
	}
	scenarios := []struct {
		name     string
		deadline time.Duration
		bps      float64 // every tier's declared link rate; > 0 turns the frame downlink on
		reason   orchestrator.DropReason
		// fault is the faulty member's reply to round 0's broadcast;
		// release closes when the federation is over. A nil fault strikes
		// earlier: the member reads the head of the broadcast and hangs up.
		fault func(cs *connStream, release <-chan struct{})
	}{
		{
			// Half an update frame, then the connection drops: the folds
			// of the sections that did arrive must be withdrawn. A
			// truncated frame is reported as corruption.
			name:   "dies mid-stream",
			reason: orchestrator.DropCorrupt,
			fault: func(cs *connStream, _ <-chan struct{}) {
				sendUpdate(cs, poison[:len(poison)/2])
				_ = cs.conn.Close()
			},
		},
		{
			// The FULL frame, then the connection drops before the
			// plan-prior trailer: every entry is already folded when the
			// trailer read fails, and must be withdrawn.
			name:   "dies after update frame",
			reason: orchestrator.DropDisconnect,
			fault: func(cs *connStream, _ <-chan struct{}) {
				sendUpdate(cs, poison)
				_ = cs.conn.Close()
			},
		},
		{
			// A complete reply with one bit flipped inside the frame's last
			// section: only the checksum can reject it.
			name:   "corrupt checksummed frame",
			reason: orchestrator.DropCorrupt,
			fault: func(cs *connStream, _ <-chan struct{}) {
				flipped := append([]byte(nil), poison...)
				flipped[len(flipped)-6] ^= 0x10
				sendUpdate(cs, flipped, []byte{0}) // empty prior trailer
				_, _ = io.Copy(io.Discard, cs.r)   // wait to be hung up on
			},
		},
		{
			// Receives the broadcast, then stalls: the round deadline must
			// cut it and finish with the on-time updates.
			name:     "straggler past the deadline",
			deadline: 300 * time.Millisecond,
			reason:   orchestrator.DropDeadline,
			fault:    func(_ *connStream, release <-chan struct{}) { <-release },
		},
		{
			// The global travels as a frame (relayed by the edge); the member
			// takes the trace message and the first few hundred bytes of it
			// and drops the connection. Whether the tier notices on its
			// write or on the read that follows, it is a disconnect.
			name:   "dies mid-frame on the downlink",
			bps:    100e6,
			reason: orchestrator.DropDisconnect,
		},
	}
	for _, sc := range scenarios {
		for _, tier := range []string{"coordinator", "edge"} {
			t.Run(sc.name+"/"+tier, func(t *testing.T) {
				const rounds = 2
				spansBefore := obs.DefaultTrace.Total()
				var stats []orchestrator.RoundStats
				var globals []*model.StateDict
				cfg := OrchestratedConfig{
					Codec:         codec,
					MinClients:    3,
					Rounds:        rounds,
					RoundDeadline: sc.deadline,
					BandwidthBps:  sc.bps,
					OnRound: func(_ int, global *model.StateDict, st orchestrator.RoundStats) {
						stats = append(stats, st)
						globals = append(globals, global)
					},
				}
				coordLn := tcpListener(t)
				defer coordLn.Close()
				memberAddr := coordLn.Addr().String()
				var wg sync.WaitGroup
				if tier == "edge" {
					// The members (and the deadline that cuts them) move
					// behind an edge; the coordinator sees one participant.
					cfg.MinClients, cfg.RoundDeadline = 1, 0
					edge, err := NewEdge(EdgeConfig{
						Upstream:      dialTCP(memberAddr),
						Codec:         codec,
						MinClients:    3,
						RoundDeadline: sc.deadline,
						BandwidthBps:  sc.bps,
						Checksum:      true,
					})
					if err != nil {
						t.Fatal(err)
					}
					edgeLn := tcpListener(t)
					memberAddr = edgeLn.Addr().String()
					wg.Add(1)
					go func() {
						defer wg.Done()
						defer edgeLn.Close()
						if err := edge.Serve(edgeLn); err != nil {
							t.Errorf("edge: %v", err)
						}
					}()
				}
				srv, err := NewOrchestrated(cfg)
				if err != nil {
					t.Fatal(err)
				}

				for i := range upds {
					wg.Add(1)
					go func(i int) {
						defer wg.Done()
						conn, err := net.Dial("tcp", memberAddr)
						if err != nil {
							t.Errorf("survivor %d dial: %v", i, err)
							return
						}
						defer conn.Close()
						if err := RunClient(conn, codec, func(int, *model.StateDict) (*model.StateDict, int, error) {
							return upds[i], weights[i], nil
						}); err != nil {
							t.Errorf("survivor %d: %v", i, err)
						}
					}(i)
				}
				release := make(chan struct{})
				wg.Add(1)
				go func() {
					defer wg.Done()
					conn, err := net.Dial("tcp", memberAddr)
					if err != nil {
						t.Errorf("faulty member dial: %v", err)
						return
					}
					defer conn.Close()
					cs := newConnStream(conn)
					if err := cs.writeMsg(MsgJoin, nil); err != nil {
						t.Errorf("faulty member join: %v", err)
						return
					}
					if sc.fault == nil {
						if _, err := io.ReadFull(conn, make([]byte, 600)); err != nil {
							t.Errorf("faulty member: head of round 0's broadcast: %v", err)
						}
						return // the deferred Close hangs up mid-frame
					}
					if _, done, err := readDownlink(cs, codec, nil, nil); err != nil || done {
						t.Errorf("faulty member: no round 0 broadcast (done %v, err %v)", done, err)
						return
					}
					sc.fault(cs, release)
				}()

				done := make(chan struct{})
				var serveErr error
				go func() {
					_, serveErr = srv.Serve(coordLn, initial)
					close(done)
				}()
				select {
				case <-done:
				case <-time.After(30 * time.Second):
					t.Fatal("federation stuck on the faulty member")
				}
				close(release)
				wg.Wait()
				if serveErr != nil {
					t.Fatalf("server: %v", serveErr)
				}

				if len(stats) != rounds {
					t.Fatalf("committed %d rounds, want %d", len(stats), rounds)
				}
				// The fault round and the clean one after it commit the same
				// global: the survivors' average, exactly.
				for r, st := range stats {
					if st.Folded != len(upds) {
						t.Fatalf("round %d folded %d updates, want the %d survivors'", r, st.Folded, len(upds))
					}
					assertExactly(t, globals[r], want)
				}

				// The tier the members joined recorded the fault round with
				// one outcome per participant, and ran the next round with
				// the survivors alone.
				var spans []obs.RoundSpan
				for _, sp := range obs.DefaultTrace.Recent(int(obs.DefaultTrace.Total() - spansBefore)) {
					if sp.Tier == tier {
						spans = append(spans, sp)
					}
				}
				if len(spans) != rounds {
					t.Fatalf("%s recorded %d spans, want %d", tier, len(spans), rounds)
				}
				if sp := spans[0]; sp.Sampled != 3 || sp.Committed != 2 || sp.Dropped != 1 || len(sp.Clients) != 3 {
					t.Fatalf("fault round span %+v, want sampled 3 committed 2 dropped 1 with 3 records", sp)
				}
				outcomes := map[string]int{}
				ids := map[string]bool{}
				for _, c := range spans[0].Clients {
					outcomes[c.Outcome]++
					ids[c.ID] = true
				}
				if len(ids) != 3 || outcomes["committed"] != 2 || outcomes[sc.reason.String()] != 1 {
					t.Fatalf("fault round outcomes %v, want 2 committed and 1 %q", outcomes, sc.reason)
				}
				if sp := spans[1]; sp.Sampled != 2 || sp.Committed != 2 {
					t.Fatalf("survivor round span %+v, want only the 2 survivors", sp)
				}
				if sc.bps > 0 {
					mode := map[string]string{"coordinator": "frame", "edge": "relay"}[tier]
					for r, sp := range spans {
						if sp.Down == nil || sp.Down.Mode != mode {
							t.Errorf("round %d: the members' tier sent the global as %+v, want mode %q", r, sp.Down, mode)
						}
					}
				}
			})
		}
	}
}

// TestOrchestratedDynamicJoin starts the server with one client and
// lets a second join mid-training: later rounds must sample both.
func TestOrchestratedDynamicJoin(t *testing.T) {
	var mu sync.Mutex
	var sampled []int
	release := make(chan struct{})
	// joined closes once the server has registered the second client
	// ("%s joined" fires after coord.Join); the first client holds its
	// round-2 update until then, so round 3's sample deterministically
	// sees both however fast the rounds run.
	joined := make(chan struct{})
	var joins atomic.Int64
	srv, err := NewOrchestrated(OrchestratedConfig{
		MinClients: 1,
		Rounds:     6,
		Logf: func(format string, args ...interface{}) {
			if format == "%s joined" && joins.Add(1) == 2 {
				close(joined)
			}
		},
		OnRound: func(round int, global *model.StateDict, st orchestrator.RoundStats) {
			mu.Lock()
			sampled = append(sampled, st.Committed)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ln := newPipeListener(2)
	defer ln.Close()
	initial := nn.MobileNetV2Mini(48, 4, 7).StateDict()

	var rounds0 atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		conn := ln.Dial()
		defer conn.Close()
		_ = RunClient(conn, nil, func(round int, global *model.StateDict) (*model.StateDict, int, error) {
			if rounds0.Add(1) == 2 {
				close(release) // let the second client join after round 1
				<-joined       // and don't finish round 2 until it has
			}
			return global, 10, nil
		})
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-release
		conn := ln.Dial()
		defer conn.Close()
		_ = RunClient(conn, nil, func(round int, global *model.StateDict) (*model.StateDict, int, error) {
			return global, 20, nil
		})
	}()

	final, err := srv.Serve(ln, initial)
	wg.Wait()
	if err != nil {
		t.Fatalf("server: %v", err)
	}
	if final == nil {
		t.Fatal("nil final model")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(sampled) != 6 {
		t.Fatalf("rounds = %d, want 6", len(sampled))
	}
	if sampled[0] != 1 {
		t.Fatalf("first round committed %d, want 1", sampled[0])
	}
	if last := sampled[len(sampled)-1]; last != 2 {
		t.Fatalf("last round committed %d, want 2 after dynamic join", last)
	}
}
