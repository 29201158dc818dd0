package transport

import (
	"io"
	"net"
	"sync"
	"testing"

	"fedsz/internal/core"
	"fedsz/internal/fl"
	"fedsz/internal/hier"
	"fedsz/internal/model"
	"fedsz/internal/nn"
	"fedsz/internal/obs"
	"fedsz/internal/orchestrator"
)

// readMsgSkippingTrace drains the MsgRoundTrace frames every round now
// leads with and returns the first other message — the raw-protocol
// peers in these tests predate tracing and only care about the payload
// messages.
func readMsgSkippingTrace(cs *connStream) (MsgType, error) {
	for {
		tp, err := cs.readMsgType()
		if err != nil || tp != MsgRoundTrace {
			return tp, err
		}
		if _, _, err := readRoundTrace(cs.r); err != nil {
			return tp, err
		}
	}
}

// coordinatorTrees returns the newest n coordinator-rooted trees from
// the process-wide trace. Edge tiers in these in-process federations
// record their own spans into the same ring, so tests filter by tier.
func coordinatorTrees(n int) []obs.Tree {
	all := obs.DefaultAssembler.Trees(obs.DefaultTrace, 0)
	var coord []obs.Tree
	for _, tr := range all {
		if tr.Root != nil && tr.Root.Tier == "coordinator" {
			coord = append(coord, tr)
		}
	}
	if len(coord) > n {
		coord = coord[len(coord)-n:]
	}
	return coord
}

// TestCrossTierTraceAssembly runs a real 2-tier TCP federation and
// asserts every edge's span summary joined the coordinator's round
// tree: both regions graft a subtree, the subtree's commit counts match
// the region's clients, and the computed critical path fits the
// measured round wall time.
func TestCrossTierTraceAssembly(t *testing.T) {
	const (
		edges          = 2
		clientsPerEdge = 3
		rounds         = 2
	)
	initial := nn.MobileNetV2Mini(48, 4, 7).StateDict()
	upd := nn.MobileNetV2Mini(48, 4, 8).StateDict()

	var stats []orchestrator.RoundStats
	srv, err := NewOrchestrated(OrchestratedConfig{
		MinClients: edges,
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
	for e := 0; e < edges; e++ {
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
			go func(addr string) {
				defer wg.Done()
				conn, err := net.Dial("tcp", addr)
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
			}(edgeLn.Addr().String())
		}
	}

	if _, err := srv.Serve(coreLn, initial); err != nil {
		t.Fatalf("server: %v", err)
	}
	wg.Wait()
	if len(stats) != rounds {
		t.Fatalf("committed %d rounds, want %d", len(stats), rounds)
	}

	trees := coordinatorTrees(rounds)
	if len(trees) != rounds {
		t.Fatalf("assembled %d coordinator trees, want %d", len(trees), rounds)
	}
	for _, tree := range trees {
		if tree.TraceID == "" {
			t.Fatalf("round %d tree has no trace ID", tree.Round)
		}
		if len(tree.Root.Participants) != edges {
			t.Fatalf("round %d tree has %d participants, want %d edges",
				tree.Round, len(tree.Root.Participants), edges)
		}
		criticals := 0
		for _, p := range tree.Root.Participants {
			// Every edge's trailer must have joined the tree.
			if p.Region == nil {
				t.Fatalf("round %d participant %s has no grafted subtree", tree.Round, p.ID)
			}
			if p.Region.Tier != "edge" {
				t.Fatalf("round %d participant %s subtree tier = %q", tree.Round, p.ID, p.Region.Tier)
			}
			if p.Region.Committed != clientsPerEdge {
				t.Fatalf("round %d region %s committed %d, want %d",
					tree.Round, p.ID, p.Region.Committed, clientsPerEdge)
			}
			if p.Critical {
				criticals++
				if p.SlackNs != 0 {
					t.Fatalf("round %d critical participant %s has slack %d", tree.Round, p.ID, p.SlackNs)
				}
			}
		}
		if criticals != 1 {
			t.Fatalf("round %d marked %d participants critical, want 1", tree.Round, criticals)
		}
		// The critical path descends through the gating region: the wall
		// time it explains is positive and fits the measured round wall
		// (loose bounds — scheduler noise on a loaded CI box swamps the
		// sub-millisecond phases; the 10%-fit criterion is asserted on a
		// live federation by scripts/trace_smoke.sh).
		if len(tree.CriticalPath) < 4 {
			t.Fatalf("round %d critical path too shallow to cross tiers: %+v", tree.Round, tree.CriticalPath)
		}
		if tree.CriticalNs <= 0 || tree.CriticalNs > tree.WallNs*2 {
			t.Fatalf("round %d criticalNs %d vs wallNs %d", tree.Round, tree.CriticalNs, tree.WallNs)
		}
		var sum int64
		for _, seg := range tree.CriticalPath {
			if seg.Ns < 0 {
				t.Fatalf("round %d negative segment %+v", tree.Round, seg)
			}
			sum += seg.Ns
		}
		if sum != tree.CriticalNs {
			t.Fatalf("round %d path sums to %d, CriticalNs %d", tree.Round, sum, tree.CriticalNs)
		}
	}
}

// TestKilledEdgeWithdrawnSubtree kills an edge mid-upload: the round
// commits from the survivor, and the dead region appears in the tree
// as a withdrawn subtree — participant recorded with its drop outcome,
// no grafted detail.
func TestKilledEdgeWithdrawnSubtree(t *testing.T) {
	const clientsPerEdge = 2
	initial := nn.MobileNetV2Mini(48, 4, 7).StateDict()
	upd := nn.MobileNetV2Mini(48, 4, 8).StateDict()

	var stats []orchestrator.RoundStats
	srv, err := NewOrchestrated(OrchestratedConfig{
		MinClients: 2, // the healthy edge and the dier
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
	// The dying region: joins as an edge, sends half a partial frame,
	// slams the connection.
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
		if err := agg.FoldStateDict(upd, 10); err != nil {
			t.Errorf("dier fold: %v", err)
			return
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

	if _, err := srv.Serve(coreLn, initial); err != nil {
		t.Fatalf("server: %v", err)
	}
	wg.Wait()
	if len(stats) != 1 || stats[0].Committed != 1 || stats[0].Dropped != 1 {
		t.Fatalf("stats %+v, want committed 1 dropped 1", stats)
	}

	trees := coordinatorTrees(1)
	if len(trees) != 1 {
		t.Fatal("no coordinator tree assembled")
	}
	tree := trees[0]
	if len(tree.Root.Participants) != 2 {
		t.Fatalf("tree has %d participants, want 2", len(tree.Root.Participants))
	}
	var alive, withdrawn *obs.TreeParticipant
	for i := range tree.Root.Participants {
		p := &tree.Root.Participants[i]
		if p.Outcome == "committed" {
			alive = p
		} else {
			withdrawn = p
		}
	}
	if alive == nil || alive.Region == nil || alive.Region.Committed != clientsPerEdge {
		t.Fatalf("surviving region = %+v", alive)
	}
	// The dead region is a withdrawn subtree: outcome recorded, no
	// grafted detail (its trailer never arrived intact).
	if withdrawn == nil || withdrawn.Region != nil {
		t.Fatalf("withdrawn region = %+v", withdrawn)
	}
}

// TestMixedVersionEdgeNoTrailer federates one tracing edge with one
// that never ships span trailers (a pre-tracing build, played by a
// raw-protocol peer that forwards its region's partial with a nil
// Span): the round commits normally, the old edge's region appears
// without a subtree, the new edge's grafts as usual.
func TestMixedVersionEdgeNoTrailer(t *testing.T) {
	const clientsPerEdge = 2
	initial := nn.MobileNetV2Mini(48, 4, 7).StateDict()
	upd := nn.MobileNetV2Mini(48, 4, 8).StateDict()

	var stats []orchestrator.RoundStats
	srv, err := NewOrchestrated(OrchestratedConfig{
		MinClients: 2,
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
	// The pre-tracing edge: it folds its region and answers every
	// downlink with one partial that carries no span trailer.
	wg.Add(1)
	go func() {
		defer wg.Done()
		conn, err := net.Dial("tcp", coreLn.Addr().String())
		if err != nil {
			t.Errorf("old edge dial: %v", err)
			return
		}
		defer conn.Close()
		cs := newConnStream(conn)
		if err := cs.writeMsg(MsgJoinEdge, nil); err != nil {
			t.Errorf("old edge join: %v", err)
			return
		}
		for {
			down, done, err := readDownlink(cs, fl.PlainCodec{}, nil, nil)
			if err != nil {
				t.Errorf("old edge downlink: %v", err)
				return
			}
			if done {
				return
			}
			agg := orchestrator.NewAggregator(down.global, 0)
			for c := 0; c < clientsPerEdge; c++ {
				if err := agg.FoldStateDict(upd, 10); err != nil {
					t.Errorf("old edge fold: %v", err)
					return
				}
			}
			err = cs.writeMsg(MsgPartialSum, func(w io.Writer) error {
				return hier.EncodePartialTo(w, agg.Partial(), hier.WireOptions{Checksum: true})
			})
			if err != nil {
				t.Errorf("old edge send: %v", err)
				return
			}
		}
	}()

	if _, err := srv.Serve(coreLn, initial); err != nil {
		t.Fatalf("server: %v", err)
	}
	wg.Wait()
	if len(stats) != 1 || stats[0].Committed != 2 {
		t.Fatalf("stats %+v, want both edges committed", stats)
	}

	trees := coordinatorTrees(1)
	if len(trees) != 1 {
		t.Fatal("no coordinator tree assembled")
	}
	tree := trees[0]
	grafted := 0
	for _, p := range tree.Root.Participants {
		if p.Outcome != "committed" {
			t.Fatalf("participant %s outcome %q, want committed", p.ID, p.Outcome)
		}
		if p.Region != nil {
			grafted++
			if p.Region.Committed != clientsPerEdge {
				t.Fatalf("region %s committed %d, want %d", p.ID, p.Region.Committed, clientsPerEdge)
			}
		}
	}
	if grafted != 1 {
		t.Fatalf("%d regions grafted a subtree, want exactly 1 (the tracing edge)", grafted)
	}
	if len(tree.CriticalPath) == 0 || tree.CriticalNs <= 0 {
		t.Fatalf("mixed-version round lost its critical path: %+v", tree)
	}
}
