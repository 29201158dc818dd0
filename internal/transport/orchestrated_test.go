package transport

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"net"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fedsz/internal/core"
	"fedsz/internal/fl"
	"fedsz/internal/hier"
	"fedsz/internal/lossy"
	"fedsz/internal/model"
	"fedsz/internal/nn"
	"fedsz/internal/obs"
	"fedsz/internal/orchestrator"
)

// encodeUpdate runs c.EncodeTo into memory, returning the update's
// bytes.
func encodeUpdate(c fl.Codec, sd *model.StateDict) ([]byte, fl.UpdateStats, error) {
	var buf bytes.Buffer
	st, err := c.EncodeTo(&buf, sd)
	return buf.Bytes(), st, err
}

// decodeUpdate decodes one update held in memory.
func decodeUpdate(c fl.Codec, buf []byte) (*model.StateDict, error) {
	return c.DecodeFrom(bytes.NewReader(buf))
}

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
	poison, _, err := encodeUpdate(codec, nn.MobileNetV2Mini(48, 4, 9).StateDict())
	if err != nil {
		t.Fatal(err)
	}
	// What the aggregating tier decodes from each survivor.
	decoded := make([]*model.StateDict, len(upds))
	for i, u := range upds {
		buf, _, err := encodeUpdate(codec, u)
		if err != nil {
			t.Fatal(err)
		}
		if decoded[i], err = decodeUpdate(codec, buf); err != nil {
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

// gridded is a model whose every float sits on a 2^-8 grid: weighted
// float64 sums of a few of them are exact, so their FedAvg commits the
// same bits in any fold order and through any number of tiers.
func gridded(seed int64) *model.StateDict {
	sd := nn.MobileNetV2Mini(48, 4, seed).StateDict()
	for i := 0; i < sd.Len(); i++ {
		if e := sd.At(i); e.DType == model.Float32 {
			data := e.Tensor.Data()
			for j, v := range data {
				data[j] = float32(math.Round(float64(v)*256) / 256)
			}
		}
	}
	return sd
}

// spareStorage lists where each of a tier's spare landings keeps its
// floats.
func spareStorage(tr *tier) map[any]bool {
	tr.land.mu.Lock()
	defer tr.land.mu.Unlock()
	out := map[any]bool{}
	for _, ld := range tr.land.spare {
		if ld.partial != nil {
			for _, e := range ld.partial.Entries {
				if len(e.Sums) > 0 {
					out[&e.Sums[0]] = true
					break
				}
			}
			continue
		}
		for i := 0; i < ld.dict.Len(); i++ {
			if e := ld.dict.At(i); e.DType == model.Float32 {
				out[&e.Tensor.Data()[0]] = true
				break
			}
		}
	}
	return out
}

// landingMember is one member of the tier under test: a plain client,
// or a region that ships its one update folded into a checksummed
// partial. It answers every round it is sent until the tier shuts down,
// except that in round faultRound it sends what fault makes of its reply
// and loses the connection — hanging up at once when fault cut the reply
// short, after being hung up on otherwise — and rejoins as a new member.
func landingMember(t *testing.T, addr string, region bool, upd *model.StateDict, weight, faultRound int, fault func([]byte) []byte) {
	join, reply := MsgJoin, MsgUpdate
	if region {
		join, reply = MsgJoinEdge, MsgPartialSum
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Errorf("member dial: %v", err)
		return
	}
	defer conn.Close()
	cs := newConnStream(conn)
	if err := cs.writeMsg(join, nil); err != nil {
		t.Errorf("member join: %v", err)
		return
	}
	for round := 0; ; round++ {
		down, done, err := readDownlink(cs, fl.PlainCodec{}, nil, nil)
		if done || err != nil {
			if err != nil {
				t.Errorf("member round %d: %v", round, err)
			}
			return
		}
		var msg []byte
		if region {
			agg := orchestrator.NewAggregator(down.global, 0)
			if err := agg.FoldStateDict(upd, float64(weight)); err != nil {
				t.Error(err)
				return
			}
			msg, err = hier.EncodePartial(agg.Partial(), hier.WireOptions{Checksum: true})
		} else {
			msg, err = core.MarshalStateDict(upd)
			msg = append(append(binary.AppendUvarint(nil, uint64(weight)), msg...), 0) // sample count, update, empty prior
		}
		if err != nil {
			t.Error(err)
			return
		}
		sent := msg
		if round == faultRound {
			sent = fault(slices.Clone(msg))
		}
		if err := cs.writeMsg(reply, func(w io.Writer) error { _, err := w.Write(sent); return err }); err != nil {
			t.Errorf("member round %d: %v", round, err)
			return
		}
		if round == faultRound {
			if len(sent) == len(msg) {
				_, _ = io.Copy(io.Discard, cs.r)
			}
			_ = conn.Close()
			landingMember(t, addr, region, upd, weight, -1, nil)
			return
		}
	}
}

// TestLandingReuseAfterFaults: the buffers a tier decodes uplinks into
// are reused whatever the last round did to them. Three members answer
// round 0; in round 1 one of them fails part-way through its uplink — a
// plain client dies mid-update, a region's partial is cut mid-entry or
// fails its checksum — and rejoins, so round 2 has three members again.
// At either tier, the same three landings serve all three rounds (the
// one the failed decode left half overwritten goes to a survivor), and
// every round commits the bit-exact fl.FedAvg of the members whose
// uplink arrived whole. Landings are poisoned with NaN as they are handed
// back, so a fold or undo that read one after the gather would show.
func TestLandingReuseAfterFaults(t *testing.T) {
	defer func(old bool) { poisonLandings = old }(poisonLandings)
	poisonLandings = true

	initial := gridded(7)
	upds := []*model.StateDict{gridded(8), gridded(10), gridded(12)} // the last is the faulty member's
	weights := []int{10, 11, 12}
	all, err := fl.FedAvg(upds, weights)
	if err != nil {
		t.Fatal(err)
	}
	survivors, err := fl.FedAvg(upds[:2], weights[:2])
	if err != nil {
		t.Fatal(err)
	}
	want := []*model.StateDict{all, survivors, all}

	cut := func(m []byte) []byte { return m[:len(m)/2] }
	for _, sc := range []struct {
		name   string
		region bool
		fault  func([]byte) []byte
	}{
		{"client dies mid-update", false, cut},
		{"partial cut mid-entry", true, cut},
		{"partial fails its checksum", true, func(m []byte) []byte {
			m[len(m)-6] ^= 0x10 // the last entry's last byte: the prior length and the CRC follow
			return m
		}},
	} {
		for _, tierName := range []string{"coordinator", "edge"} {
			t.Run(sc.name+"/"+tierName, func(t *testing.T) {
				const rounds = 3
				// rejoined closes when the members' tier has registered its
				// fourth member: the faulty one, back after round 1.
				var joins atomic.Int64
				rejoined := make(chan struct{})
				countJoins := func(format string, _ ...interface{}) {
					if strings.HasSuffix(format, "%s joined") && joins.Add(1) == 4 {
						close(rejoined)
					}
				}
				var members *tier
				var globals []*model.StateDict
				var spares []map[any]bool
				cfg := OrchestratedConfig{
					MinClients: 3,
					Rounds:     rounds,
					OnRound: func(round int, global *model.StateDict, _ orchestrator.RoundStats) {
						globals = append(globals, global)
						spares = append(spares, spareStorage(members))
						if round == 1 {
							select {
							case <-rejoined:
							case <-time.After(10 * time.Second):
								t.Error("the faulty member never rejoined")
							}
						}
					},
				}
				coordLn := tcpListener(t)
				defer coordLn.Close()
				memberAddr := coordLn.Addr().String()
				var wg sync.WaitGroup
				if tierName == "edge" {
					cfg.MinClients = 1
					edge, err := NewEdge(EdgeConfig{
						Upstream:   dialTCP(memberAddr),
						MinClients: 3,
						Checksum:   true,
						Logf:       countJoins,
					})
					if err != nil {
						t.Fatal(err)
					}
					members = edge.t
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
				} else {
					cfg.Logf = countJoins
				}
				srv, err := NewOrchestrated(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if members == nil {
					members = srv.t
				}
				for i := range upds {
					faultRound := -1
					if i == len(upds)-1 {
						faultRound = 1
					}
					wg.Add(1)
					go func(i, faultRound int) {
						defer wg.Done()
						landingMember(t, memberAddr, sc.region, upds[i], weights[i], faultRound, sc.fault)
					}(i, faultRound)
				}
				if _, err := srv.Serve(coordLn, initial); err != nil {
					t.Fatalf("server: %v", err)
				}
				wg.Wait()

				if len(globals) != rounds {
					t.Fatalf("committed %d rounds, want %d", len(globals), rounds)
				}
				for r, g := range globals {
					assertExactly(t, g, want[r])
					if len(spares[r]) != 3 {
						t.Fatalf("round %d left %d spare landings, want its 3 participants'", r, len(spares[r]))
					}
					for s := range spares[r] {
						if !spares[0][s] {
							t.Fatalf("round %d decoded into a landing round 0 did not use: the failed decode's landing was dropped", r)
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
