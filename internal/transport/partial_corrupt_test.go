package transport

import (
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"

	"fedsz/internal/core"
	"fedsz/internal/hier"
	"fedsz/internal/model"
	"fedsz/internal/nn"
	"fedsz/internal/orchestrator"
)

// sendFlippedPartial joins upstream as an edge, folds a heavily
// weighted poison region, and ships its checksummed partial complete
// but for one bit flipped inside the LAST entry's data — the streaming
// decoder has converted every earlier entry by the time the trailer
// can expose it. It then waits for the upstream to hang up, so the
// only thing that can reject the region is the checksum.
func sendFlippedPartial(addr string, poison *model.StateDict) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	cs := newConnStream(conn)
	if err := cs.writeMsg(MsgJoinEdge, nil); err != nil {
		return err
	}
	if tp, err := readMsgSkippingTrace(cs); err != nil || tp != MsgGlobalModel {
		return fmt.Errorf("expected global model, got %v (%v)", tp, err)
	}
	global, err := core.UnmarshalStateDictFrom(cs.r)
	if err != nil {
		return err
	}
	agg := orchestrator.NewAggregator(global, 0)
	for i := 0; i < 3; i++ {
		if err := agg.FoldStateDict(poison, 1000); err != nil {
			return err
		}
	}
	frame, err := hier.EncodePartial(agg.Partial(), hier.WireOptions{Checksum: true})
	if err != nil {
		return err
	}
	// The frame ends: last entry's data | prior length (one zero byte) |
	// CRC32C. Six bytes back is inside the last entry's final element.
	frame[len(frame)-6] ^= 0x10
	if err := cs.writeMsg(MsgPartialSum, func(w io.Writer) error {
		_, err := w.Write(frame)
		return err
	}); err != nil {
		return err
	}
	_, _ = io.Copy(io.Discard, cs.r)
	return nil
}

// assertExactly fails unless got's float tensors equal want's bit for
// bit — the survivors' identical updates average to exactly want, so
// any residue of the poison region shows.
func assertExactly(t *testing.T, got, want *model.StateDict) {
	t.Helper()
	for _, w := range want.Entries() {
		if w.DType != model.Float32 {
			continue
		}
		g, ok := got.Get(w.Name)
		if !ok {
			t.Fatalf("final model missing %q", w.Name)
		}
		gd, wd := g.Tensor.Data(), w.Tensor.Data()
		for j := range wd {
			if gd[j] != wd[j] {
				t.Fatalf("entry %q element %d: %v != %v (corrupt region leaked into the sums?)", w.Name, j, gd[j], wd[j])
			}
		}
	}
}

// TestFlippedLastEntryReachesNoAggregator: a partial whose last entry
// took a bit flip is decoded as a stream, yet nothing of it is folded —
// the trailer is verified before the partial is handed to either kind
// of upstream, the coordinator or a parent edge.
func TestFlippedLastEntryReachesNoAggregator(t *testing.T) {
	initial := nn.MobileNetV2Mini(48, 4, 7).StateDict()
	upd := nn.MobileNetV2Mini(48, 4, 8).StateDict()
	poison := nn.MobileNetV2Mini(48, 4, 9).StateDict()

	runClient := func(t *testing.T, addr string) {
		conn, err := net.Dial("tcp", addr)
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
	}

	t.Run("coordinator", func(t *testing.T) {
		var mu sync.Mutex
		var reasons []orchestrator.DropReason
		var stats []orchestrator.RoundStats
		srv, err := NewOrchestrated(OrchestratedConfig{
			MinClients: 2, // one honest client, one corrupt region
			Rounds:     1,
			OnDrop: func(_ string, reason orchestrator.DropReason) {
				mu.Lock()
				reasons = append(reasons, reason)
				mu.Unlock()
			},
			OnRound: func(_ int, _ *model.StateDict, st orchestrator.RoundStats) {
				stats = append(stats, st)
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		ln := tcpListener(t)
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); runClient(t, ln.Addr().String()) }()
		go func() {
			defer wg.Done()
			if err := sendFlippedPartial(ln.Addr().String(), poison); err != nil {
				t.Errorf("corrupt region: %v", err)
			}
		}()
		final, err := srv.Serve(ln, initial)
		if err != nil {
			t.Fatalf("server: %v", err)
		}
		wg.Wait()
		if len(stats) != 1 || stats[0].Committed != 1 || stats[0].Dropped != 1 || stats[0].Folded != 1 {
			t.Fatalf("stats %+v, want one round: committed 1, dropped 1, folded 1", stats)
		}
		mu.Lock()
		defer mu.Unlock()
		if len(reasons) == 0 || reasons[0] != orchestrator.DropCorrupt {
			t.Fatalf("drop reasons %v, want the flipped region dropped as corrupt", reasons)
		}
		assertExactly(t, final, upd)
	})

	t.Run("nested edge", func(t *testing.T) {
		srv, err := NewOrchestrated(OrchestratedConfig{MinClients: 1, Rounds: 1})
		if err != nil {
			t.Fatal(err)
		}
		coreLn, edgeLn := tcpListener(t), tcpListener(t)
		var mu sync.Mutex
		var logs []string
		folded := -1
		edge, err := NewEdge(EdgeConfig{
			Upstream:   dialTCP(coreLn.Addr().String()),
			MinClients: 2, // one honest client, one corrupt nested region
			Checksum:   true,
			OnPartial:  func(_, updates, _ int) { mu.Lock(); folded = updates; mu.Unlock() },
			Logf: func(format string, args ...interface{}) {
				mu.Lock()
				logs = append(logs, fmt.Sprintf(format, args...))
				mu.Unlock()
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		wg.Add(3)
		go func() {
			defer wg.Done()
			defer edgeLn.Close()
			if err := edge.Serve(edgeLn); err != nil {
				t.Errorf("edge: %v", err)
			}
		}()
		go func() { defer wg.Done(); runClient(t, edgeLn.Addr().String()) }()
		go func() {
			defer wg.Done()
			if err := sendFlippedPartial(edgeLn.Addr().String(), poison); err != nil {
				t.Errorf("corrupt region: %v", err)
			}
		}()
		final, err := srv.Serve(coreLn, initial)
		if err != nil {
			t.Fatalf("server: %v", err)
		}
		wg.Wait()
		mu.Lock()
		defer mu.Unlock()
		if folded != 1 {
			t.Fatalf("edge forwarded %d updates, want the honest client's 1", folded)
		}
		if all := strings.Join(logs, "\n"); !strings.Contains(all, "checksum mismatch") {
			t.Fatalf("edge never reported the checksum mismatch:\n%s", all)
		}
		assertExactly(t, final, upd)
	})
}
