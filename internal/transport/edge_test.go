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
	"fedsz/internal/hier"
	"fedsz/internal/model"
	"fedsz/internal/nn"
	"fedsz/internal/obs"
	"fedsz/internal/orchestrator"
)

// tcpListener opens a loopback TCP listener or fails the test.
func tcpListener(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	return ln
}

// dialTCP returns an Upstream dialer for addr.
func dialTCP(addr string) func() (net.Conn, error) {
	return func() (net.Conn, error) { return net.Dial("tcp", addr) }
}

// TestEdgeLoopback is the CI smoke test: a full 2-tier federation over
// real TCP loopback — 3 edge aggregators, 10 clients each, partial
// frames checksummed — runs four rounds end to end. In each round every
// client sends the same update with equal weight, so the committed
// global must be bit-identical to that round's update: the
// unnormalized sums and the final division are exact in float64 for
// identical addends, regardless of arrival order.
func TestEdgeLoopback(t *testing.T) {
	const (
		edges          = 3
		clientsPerEdge = 10
		rounds         = 4
	)
	// Every round trains to a different model and a different Int64 value,
	// so anything a tier's reused aggregator carried over from round r —
	// sums, weight, the adopted integers — would show in round r+1.
	withSteps := func(sd *model.StateDict, steps int64) *model.StateDict {
		if err := sd.Add(model.Entry{Name: "bn.num_batches_tracked", DType: model.Int64, Ints: []int64{steps}}); err != nil {
			t.Fatal(err)
		}
		return sd
	}
	initial := withSteps(nn.MobileNetV2Mini(48, 4, 7).StateDict(), 0)
	upds := make([]*model.StateDict, rounds)
	for r := range upds {
		upds[r] = withSteps(nn.MobileNetV2Mini(48, 4, int64(8+r)).StateDict(), int64(100+r))
	}

	var stats []orchestrator.RoundStats
	srv, err := NewOrchestrated(OrchestratedConfig{
		MinClients: edges,
		Rounds:     rounds,
		OnRound: func(round int, global *model.StateDict, st orchestrator.RoundStats) {
			stats = append(stats, st)
			// Identical updates with equal weights average to the update
			// itself, exactly — through three regions as through none.
			assertSameDict(t, upds[round], global)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	coreLn := tcpListener(t)

	var wg sync.WaitGroup
	var partialBytes atomic.Int64
	for e := 0; e < edges; e++ {
		edgeLn := tcpListener(t)
		edge, err := NewEdge(EdgeConfig{
			Upstream:   dialTCP(coreLn.Addr().String()),
			MinClients: clientsPerEdge,
			Checksum:   true,
			OnPartial: func(round, updates, wireBytes int) {
				partialBytes.Add(int64(wireBytes))
				if updates != clientsPerEdge {
					t.Errorf("partial carries %d updates, want %d", updates, clientsPerEdge)
				}
			},
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
		for c := 0; c < clientsPerEdge; c++ {
			wg.Add(1)
			go func(addr string) {
				defer wg.Done()
				conn, err := net.Dial("tcp", addr)
				if err != nil {
					t.Errorf("client dial: %v", err)
					return
				}
				defer conn.Close()
				err = RunClient(conn, nil, func(round int, global *model.StateDict) (*model.StateDict, int, error) {
					return upds[round], 10, nil
				})
				if err != nil {
					t.Errorf("client: %v", err)
				}
			}(edgeLn.Addr().String())
		}
	}

	final, err := srv.Serve(coreLn, initial)
	if err != nil {
		t.Fatalf("server: %v", err)
	}
	wg.Wait()

	if len(stats) != rounds {
		t.Fatalf("committed %d rounds, want %d", len(stats), rounds)
	}
	for i, st := range stats {
		if st.Committed != edges {
			t.Errorf("round %d Committed = %d, want %d edges", i, st.Committed, edges)
		}
		if st.Folded != edges*clientsPerEdge {
			t.Errorf("round %d Folded = %d, want %d client updates", i, st.Folded, edges*clientsPerEdge)
		}
	}
	if partialBytes.Load() == 0 {
		t.Error("no partial frames observed")
	}
	assertSameDict(t, upds[rounds-1], final)
}

// TestEdgeDeathMidRound kills an edge halfway through its partial-sum
// upload: the coordinator must withdraw the WHOLE region (no torn
// folds linger in the sums), classify the drop, and commit the round
// from the surviving region alone — the committed global is exactly
// the survivors' average, untouched by the dead region's half-folded
// partial.
func TestEdgeDeathMidRound(t *testing.T) {
	const clientsPerEdge = 5
	initial := nn.MobileNetV2Mini(48, 4, 7).StateDict()
	upd := nn.MobileNetV2Mini(48, 4, 8).StateDict()
	poison := nn.MobileNetV2Mini(48, 4, 9).StateDict()

	var drops sync.Map
	var stats []orchestrator.RoundStats
	srv, err := NewOrchestrated(OrchestratedConfig{
		MinClients: 2, // the healthy edge and the dier
		Rounds:     1,
		OnDrop: func(id string, reason orchestrator.DropReason) {
			drops.Store(id, reason)
		},
		OnRound: func(round int, global *model.StateDict, st orchestrator.RoundStats) {
			stats = append(stats, st)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	coreLn := tcpListener(t)

	var wg sync.WaitGroup
	// Healthy region: a real edge with its clients.
	edgeLn := tcpListener(t)
	edge, err := NewEdge(EdgeConfig{
		Upstream:   dialTCP(coreLn.Addr().String()),
		MinClients: clientsPerEdge,
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
	for c := 0; c < clientsPerEdge; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn, err := net.Dial("tcp", edgeLn.Addr().String())
			if err != nil {
				t.Errorf("client dial: %v", err)
				return
			}
			defer conn.Close()
			err = RunClient(conn, nil, func(int, *model.StateDict) (*model.StateDict, int, error) {
				return upd, 10, nil
			})
			if err != nil {
				t.Errorf("client: %v", err)
			}
		}()
	}

	// Dying region: joins as an edge, folds a poisoned region locally,
	// then sends only half its partial frame and slams the connection.
	wg.Add(1)
	go func() {
		defer wg.Done()
		conn, err := net.Dial("tcp", coreLn.Addr().String())
		if err != nil {
			t.Errorf("dier dial: %v", err)
			return
		}
		cs := newConnStream(conn)
		if err := cs.writeMsg(MsgJoinEdge, nil); err != nil {
			t.Errorf("dier join: %v", err)
			return
		}
		if tp, err := readMsgSkippingTrace(cs); err != nil || tp != MsgGlobalModel {
			t.Errorf("dier: expected global model, got %v (%v)", tp, err)
			return
		}
		global, err := core.UnmarshalStateDictFrom(cs.r)
		if err != nil {
			t.Errorf("dier: read global: %v", err)
			return
		}
		agg := orchestrator.NewAggregator(global, 0)
		for i := 0; i < 3; i++ {
			if err := agg.FoldStateDict(poison, 1000); err != nil {
				t.Errorf("dier fold: %v", err)
				return
			}
		}
		frame, err := hier.EncodePartial(agg.Partial(), hier.WireOptions{Checksum: true})
		if err != nil {
			t.Errorf("dier encode: %v", err)
			return
		}
		_ = cs.writeMsg(MsgPartialSum, func(w io.Writer) error {
			_, err := w.Write(frame[:len(frame)/2])
			return err
		})
		_ = conn.Close()
	}()

	final, err := srv.Serve(coreLn, initial)
	if err != nil {
		t.Fatalf("server: %v", err)
	}
	wg.Wait()

	if len(stats) != 1 {
		t.Fatalf("committed %d rounds, want 1", len(stats))
	}
	st := stats[0]
	if st.Committed != 1 || st.Dropped != 1 {
		t.Fatalf("stats %+v, want committed 1 dropped 1", st)
	}
	if st.Folded != clientsPerEdge {
		t.Fatalf("Folded = %d, want the surviving region's %d updates", st.Folded, clientsPerEdge)
	}
	dropped := false
	drops.Range(func(k, v interface{}) bool {
		id := k.(string)
		if len(id) >= 4 && id[:4] == "edge" {
			dropped = true
		}
		return true
	})
	if !dropped {
		t.Fatal("no edge drop observed")
	}
	// The survivors' identical updates must average to exactly upd —
	// any residue of the dier's 1000-weighted poison region would show.
	for _, want := range upd.Entries() {
		if want.DType != model.Float32 {
			continue
		}
		got, ok := final.Get(want.Name)
		if !ok {
			t.Fatalf("final model missing %q", want.Name)
		}
		gd, wd := got.Tensor.Data(), want.Tensor.Data()
		for j := range wd {
			if gd[j] != wd[j] {
				t.Fatalf("entry %q element %d: %v != %v (dead region leaked into the sums?)",
					want.Name, j, gd[j], wd[j])
			}
		}
	}
}

// TestEdgeClientDiesBeforePriorTrailer kills a region client between
// its complete update frame and the plan-prior trailer: the edge has
// already folded the client's weighted entries when skipPrior fails,
// so the collector must withdraw the contribution — otherwise the
// regional partial ships the client's sums without its weight and the
// poison composes exactly into the global model upstream.
func TestEdgeClientDiesBeforePriorTrailer(t *testing.T) {
	initial := nn.MobileNetV2Mini(48, 4, 7).StateDict()
	upd := nn.MobileNetV2Mini(48, 4, 8).StateDict()
	poison := nn.MobileNetV2Mini(48, 4, 9).StateDict()

	var stats []orchestrator.RoundStats
	srv, err := NewOrchestrated(OrchestratedConfig{
		MinClients: 1, // the edge is the only upstream participant
		Rounds:     1,
		OnRound: func(round int, global *model.StateDict, st orchestrator.RoundStats) {
			stats = append(stats, st)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	coreLn := tcpListener(t)

	var wg sync.WaitGroup
	edgeLn := tcpListener(t)
	edge, err := NewEdge(EdgeConfig{
		Upstream:   dialTCP(coreLn.Addr().String()),
		MinClients: 2, // the healthy client and the dier
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
	// Healthy region member.
	wg.Add(1)
	go func() {
		defer wg.Done()
		conn, err := net.Dial("tcp", edgeLn.Addr().String())
		if err != nil {
			t.Errorf("client dial: %v", err)
			return
		}
		defer conn.Close()
		if err := RunClient(conn, nil, func(int, *model.StateDict) (*model.StateDict, int, error) {
			return upd, 10, nil
		}); err != nil {
			t.Errorf("client: %v", err)
		}
	}()
	// The dier sends its FULL update frame — heavily weighted poison —
	// then slams the connection before the prior trailer.
	wg.Add(1)
	go func() {
		defer wg.Done()
		conn, err := net.Dial("tcp", edgeLn.Addr().String())
		if err != nil {
			t.Errorf("dier dial: %v", err)
			return
		}
		cs := newConnStream(conn)
		if err := cs.writeMsg(MsgJoin, nil); err != nil {
			t.Errorf("dier join: %v", err)
			return
		}
		if tp, err := readMsgSkippingTrace(cs); err != nil || tp != MsgGlobalModel {
			t.Errorf("dier: expected global model, got %v (%v)", tp, err)
			return
		}
		if _, err := core.UnmarshalStateDictFrom(cs.r); err != nil {
			t.Errorf("dier: read global: %v", err)
			return
		}
		buf, _, err := encodeUpdate(fl.PlainCodec{}, poison)
		if err != nil {
			t.Errorf("dier encode: %v", err)
			return
		}
		_ = cs.writeMsg(MsgUpdate, func(w io.Writer) error {
			if _, err := w.Write([]byte{100}); err != nil { // sample count uvarint
				return err
			}
			_, err := w.Write(buf)
			return err
		})
		_ = conn.Close()
	}()

	final, err := srv.Serve(coreLn, initial)
	if err != nil {
		t.Fatalf("server: %v", err)
	}
	wg.Wait()

	if len(stats) != 1 {
		t.Fatalf("committed %d rounds, want 1", len(stats))
	}
	st := stats[0]
	if st.Committed != 1 {
		t.Fatalf("stats %+v, want the one edge committed", st)
	}
	if st.Folded != 1 {
		t.Fatalf("Folded = %d, want only the healthy client's update", st.Folded)
	}
	// The sole surviving update must come through exactly; any residue
	// of the dier's 100-weighted poison frame would show.
	for _, want := range upd.Entries() {
		if want.DType != model.Float32 {
			continue
		}
		got, ok := final.Get(want.Name)
		if !ok {
			t.Fatalf("final model missing %q", want.Name)
		}
		gd, wd := got.Tensor.Data(), want.Tensor.Data()
		for j := range wd {
			if gd[j] != wd[j] {
				t.Fatalf("entry %q element %d: %v != %v (dier's folded update leaked into the partial?)",
					want.Name, j, gd[j], wd[j])
			}
		}
	}
}

// TestEdgeEmptyRegion: an edge whose region produced nothing ships an
// Updates==0 partial; the coordinator withdraws it for the round but
// keeps the connection — an idle region is not a dead aggregator.
func TestEdgeEmptyRegion(t *testing.T) {
	const rounds = 2
	initial := nn.MobileNetV2Mini(48, 4, 7).StateDict()
	upd := nn.MobileNetV2Mini(48, 4, 8).StateDict()

	var stats []orchestrator.RoundStats
	srv, err := NewOrchestrated(OrchestratedConfig{
		MinClients: 2,
		Rounds:     rounds,
		OnRound: func(round int, global *model.StateDict, st orchestrator.RoundStats) {
			stats = append(stats, st)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	coreLn := tcpListener(t)

	var wg sync.WaitGroup
	// One direct client keeps rounds committing.
	wg.Add(1)
	go func() {
		defer wg.Done()
		conn, err := net.Dial("tcp", coreLn.Addr().String())
		if err != nil {
			t.Errorf("client dial: %v", err)
			return
		}
		defer conn.Close()
		err = RunClient(conn, nil, func(int, *model.StateDict) (*model.StateDict, int, error) {
			return upd, 10, nil
		})
		if err != nil {
			t.Errorf("client: %v", err)
		}
	}()
	// The idle edge answers every broadcast with an empty partial.
	broadcasts := 0
	wg.Add(1)
	go func() {
		defer wg.Done()
		conn, err := net.Dial("tcp", coreLn.Addr().String())
		if err != nil {
			t.Errorf("idle edge dial: %v", err)
			return
		}
		defer conn.Close()
		cs := newConnStream(conn)
		if err := cs.writeMsg(MsgJoinEdge, nil); err != nil {
			t.Errorf("idle edge join: %v", err)
			return
		}
		for {
			tp, err := readMsgSkippingTrace(cs)
			if err != nil {
				t.Errorf("idle edge read: %v", err)
				return
			}
			if tp == MsgShutdown {
				return
			}
			if tp != MsgGlobalModel {
				t.Errorf("idle edge: unexpected %v", tp)
				return
			}
			if _, err := core.UnmarshalStateDictFrom(cs.r); err != nil {
				t.Errorf("idle edge: read global: %v", err)
				return
			}
			broadcasts++
			frame, err := hier.EncodePartial(&orchestrator.Partial{}, hier.WireOptions{Checksum: true})
			if err != nil {
				t.Errorf("idle edge encode: %v", err)
				return
			}
			err = cs.writeMsg(MsgPartialSum, func(w io.Writer) error {
				_, werr := w.Write(frame)
				return werr
			})
			if err != nil {
				t.Errorf("idle edge send: %v", err)
				return
			}
		}
	}()

	done := make(chan struct{})
	var final *model.StateDict
	var serveErr error
	go func() {
		final, serveErr = srv.Serve(coreLn, initial)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("server stuck")
	}
	wg.Wait()
	if serveErr != nil {
		t.Fatalf("server: %v", serveErr)
	}
	if final == nil || len(stats) != rounds {
		t.Fatalf("committed %d rounds, want %d", len(stats), rounds)
	}
	// Every round: the client commits, the idle edge is withdrawn but
	// stays connected — it must have seen EVERY round's broadcast.
	for i, st := range stats {
		if st.Committed != 1 || st.Dropped != 1 {
			t.Fatalf("round %d stats %+v, want committed 1 dropped 1", i, st)
		}
	}
	if broadcasts != rounds {
		t.Fatalf("idle edge saw %d broadcasts, want %d (was its connection killed?)", broadcasts, rounds)
	}
}

// TestEdgeKeepsUpstreamRoundNumber: the coordinator's round number
// rides MsgRoundTrace, and an edge must label its round with it — not
// with a counter of its own, which disagrees after an aborted round, a
// restore, or a late join. A scripted upstream opens round 7 against a
// fresh edge; the edge's span, the trace it relays to its region and
// OnPartial must all say 7.
func TestEdgeKeepsUpstreamRoundNumber(t *testing.T) {
	const round, traceID = 7, "trace-of-round-7"
	initial := nn.MobileNetV2Mini(48, 4, 7).StateDict()
	upd, _, err := encodeUpdate(fl.PlainCodec{}, nn.MobileNetV2Mini(48, 4, 8).StateDict())
	if err != nil {
		t.Fatal(err)
	}

	upLn, edgeLn := tcpListener(t), tcpListener(t)
	defer upLn.Close()
	partialRound := make(chan int, 1)
	edge, err := NewEdge(EdgeConfig{
		Upstream:  dialTCP(upLn.Addr().String()),
		OnPartial: func(round, _, _ int) { partialRound <- round },
	})
	if err != nil {
		t.Fatal(err)
	}
	spansBefore := obs.DefaultTrace.Total()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer edgeLn.Close()
		if err := edge.Serve(edgeLn); err != nil {
			t.Errorf("edge: %v", err)
		}
	}()
	// The region's one member reports the round the relayed trace names.
	relayed := make(chan downlink, 1)
	go func() {
		defer wg.Done()
		conn, err := net.Dial("tcp", edgeLn.Addr().String())
		if err != nil {
			t.Errorf("member dial: %v", err)
			return
		}
		defer conn.Close()
		cs := newConnStream(conn)
		if err := cs.writeMsg(MsgJoin, nil); err != nil {
			t.Errorf("member join: %v", err)
			return
		}
		d, done, err := readDownlink(cs, fl.PlainCodec{}, nil, nil)
		if err != nil || done {
			t.Errorf("member: no broadcast (done %v, err %v)", done, err)
			return
		}
		relayed <- d
		err = cs.writeMsg(MsgUpdate, func(w io.Writer) error {
			_, err := w.Write(append(append([]byte{10}, upd...), 0)) // samples, frame, empty prior
			return err
		})
		if err != nil {
			t.Errorf("member update: %v", err)
		}
		_, _ = io.Copy(io.Discard, cs.r) // until the edge shuts the region down
	}()

	// The scripted upstream: one round, numbered 7, then shutdown.
	conn, err := upLn.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	up := newConnStream(conn)
	if tp, err := up.readMsgType(); err != nil || tp != MsgJoinEdge {
		t.Fatalf("upstream: expected edge join, got %v (%v)", tp, err)
	}
	down := downlink{traceID: traceID, round: round, global: initial}
	if err := down.writeTo(up); err != nil {
		t.Fatal(err)
	}
	if tp, err := up.readMsgType(); err != nil || tp != MsgPartialSum {
		t.Fatalf("upstream: expected partial sum, got %v (%v)", tp, err)
	}
	if p, err := hier.DecodePartialFrom(up.r); err != nil || p.Updates != 1 {
		t.Fatalf("upstream: partial %+v (%v), want the member's 1 update", p, err)
	}
	if err := up.writeMsg(MsgShutdown, nil); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	if d := <-relayed; d.round != round || d.traceID != traceID {
		t.Errorf("edge relayed trace %q round %d to its region, want %q round %d", d.traceID, d.round, traceID, round)
	}
	if got := <-partialRound; got != round {
		t.Errorf("OnPartial round = %d, want %d", got, round)
	}
	spans := obs.DefaultTrace.Recent(int(obs.DefaultTrace.Total() - spansBefore))
	if len(spans) != 1 || spans[0].Tier != "edge" || spans[0].Round != round || spans[0].TraceID != traceID {
		t.Errorf("edge spans %+v, want one edge span for round %d of %s", spans, round, traceID)
	}
}
