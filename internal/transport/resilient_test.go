package transport

import (
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"fedsz/internal/core"
	"fedsz/internal/fl"
	"fedsz/internal/model"
	"fedsz/internal/nn"
)

// scriptedCoordinator accepts connections in order and runs the
// matching script over each — sequencing matters, because the client's
// reconnect must land on the second script, not race for the first.
func scriptedCoordinator(t *testing.T, ln *pipeListener, wg *sync.WaitGroup, scripts ...func(cs *connStream)) {
	t.Helper()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i, fn := range scripts {
			conn, err := ln.Accept()
			if err != nil {
				t.Errorf("scripted accept %d: %v", i, err)
				return
			}
			fn(newConnStream(conn))
			conn.Close()
		}
	}()
}

func expectJoin(t *testing.T, cs *connStream) bool {
	t.Helper()
	tp, err := cs.readMsgType()
	if err != nil || tp != MsgJoin {
		t.Errorf("expected join, got %v (%v)", tp, err)
		return false
	}
	return true
}

func sendGlobal(t *testing.T, cs *connStream, global *model.StateDict) bool {
	t.Helper()
	err := cs.writeMsg(MsgGlobalModel, func(w io.Writer) error {
		return core.MarshalStateDictTo(w, global)
	})
	if err != nil {
		t.Errorf("send global: %v", err)
	}
	return err == nil
}

func readUpdate(cs *connStream, codec fl.Codec) error {
	tp, err := cs.readMsgType()
	if err != nil {
		return err
	}
	if tp != MsgUpdate {
		return errors.New("expected update")
	}
	if _, err := cs.r.ReadByte(); err != nil { // sample-count uvarint (< 128 in tests)
		return err
	}
	if err := fl.DecodeEntries(codec, cs.r, func(model.Entry) error { return nil }); err != nil {
		return err
	}
	return skipPrior(cs.r) // the empty prior trailer
}

// TestResilientClientReconnects kills the client's first connection
// mid-federation: the coordinator broadcasts round 0, swallows the
// update, then slams the connection. The resilient client must redial,
// rejoin, and finish two more rounds to the clean shutdown — with a
// cumulative round counter across the sessions.
func TestResilientClientReconnects(t *testing.T) {
	codec := fl.PlainCodec{}
	global := nn.MobileNetV2Mini(48, 4, 7).StateDict()
	ln := newPipeListener(4)
	defer ln.Close()
	var wg sync.WaitGroup

	scriptedCoordinator(t, ln, &wg,
		// Session 1: one round, then abrupt death (close, no shutdown).
		func(cs *connStream) {
			if !expectJoin(t, cs) || !sendGlobal(t, cs, global) {
				return
			}
			if err := readUpdate(cs, codec); err != nil {
				t.Errorf("session 1 update: %v", err)
			}
		},
		// Session 2 (the reconnect): two rounds, then clean shutdown.
		func(cs *connStream) {
			if !expectJoin(t, cs) {
				return
			}
			for i := 0; i < 2; i++ {
				if !sendGlobal(t, cs, global) {
					return
				}
				if err := readUpdate(cs, codec); err != nil {
					t.Errorf("session 2 round %d: %v", i, err)
					return
				}
			}
			_ = cs.writeMsg(MsgShutdown, nil)
		})

	var mu sync.Mutex
	var trained []int
	var slept []time.Duration
	err := RunResilientClient(ClientConfig{
		Dial:  func() (net.Conn, error) { return ln.Dial(), nil },
		Codec: codec,
		Train: func(round int, g *model.StateDict) (*model.StateDict, int, error) {
			mu.Lock()
			trained = append(trained, round)
			mu.Unlock()
			return g, 10, nil
		},
		MaxRetries: 3,
		Sleep:      func(d time.Duration) { slept = append(slept, d) },
	})
	if err != nil {
		t.Fatalf("resilient client: %v", err)
	}
	wg.Wait()
	if len(trained) != 3 || trained[0] != 0 || trained[1] != 1 || trained[2] != 2 {
		t.Fatalf("trained rounds %v, want [0 1 2] across the reconnect", trained)
	}
	if len(slept) != 1 {
		t.Fatalf("client backed off %d times, want exactly 1 (the reconnect)", len(slept))
	}
}

// TestResilientClientResyncsAfterCutFrame: the coordinator's second
// frame downlink is cut in the middle of a tensor, which leaves the dict
// the session held partly overwritten. That session ends with the error;
// the resilient client rejoins with no dict, is sent a whole frame, and
// trains on exactly the model that frame encodes.
func TestResilientClientResyncsAfterCutFrame(t *testing.T) {
	codec, err := fl.NewFedSZCodec(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	globals := []*model.StateDict{nn.MobileNetV2Mini(48, 4, 7).StateDict(), nn.MobileNetV2Mini(48, 4, 8).StateDict()}
	frames := make([][]byte, len(globals))
	decoded := make([]*model.StateDict, len(globals))
	for i, g := range globals {
		if frames[i], _, err = encodeUpdate(codec, g); err != nil {
			t.Fatal(err)
		}
		if decoded[i], err = decodeUpdate(codec, frames[i]); err != nil {
			t.Fatal(err)
		}
	}
	sendFrame := func(cs *connStream, frame []byte) {
		if err := (&downlink{frame: frame}).writeTo(cs); err != nil {
			t.Errorf("send frame: %v", err)
		}
	}
	ln := newPipeListener(4)
	defer ln.Close()
	var wg sync.WaitGroup
	scriptedCoordinator(t, ln, &wg,
		// Session 1: a whole frame, its update, then half of the next frame.
		func(cs *connStream) {
			if !expectJoin(t, cs) {
				return
			}
			sendFrame(cs, frames[0])
			if err := readUpdate(cs, codec); err != nil {
				t.Errorf("session 1 update: %v", err)
			}
			sendFrame(cs, frames[1][:len(frames[1])/2])
		},
		// Session 2 (the rejoin): the whole frame, then clean shutdown.
		func(cs *connStream) {
			if !expectJoin(t, cs) {
				return
			}
			sendFrame(cs, frames[1])
			if err := readUpdate(cs, codec); err != nil {
				t.Errorf("session 2 update: %v", err)
			}
			_ = cs.writeMsg(MsgShutdown, nil)
		})

	var trained []int
	err = RunResilientClient(ClientConfig{
		Dial:  func() (net.Conn, error) { return ln.Dial(), nil },
		Codec: codec,
		Train: func(round int, g *model.StateDict) (*model.StateDict, int, error) {
			assertSameDict(t, decoded[round], g)
			trained = append(trained, round)
			return g, 10, nil
		},
		MaxRetries: 3,
		Sleep:      func(time.Duration) {},
	})
	if err != nil {
		t.Fatalf("resilient client: %v", err)
	}
	wg.Wait()
	if len(trained) != 2 || trained[0] != 0 || trained[1] != 1 {
		t.Fatalf("trained rounds %v, want [0 1] across the cut frame", trained)
	}
}

// TestResilientClientGivesUp exhausts the retry budget against a dead
// coordinator and checks the backoff schedule: exponential growth,
// capped, jittered into [d/2, d).
func TestResilientClientGivesUp(t *testing.T) {
	dialErr := errors.New("connection refused")
	var slept []time.Duration
	err := RunResilientClient(ClientConfig{
		Dial:        func() (net.Conn, error) { return nil, dialErr },
		Train:       func(int, *model.StateDict) (*model.StateDict, int, error) { return nil, 0, nil },
		MaxRetries:  4,
		BaseBackoff: 100 * time.Millisecond,
		MaxBackoff:  400 * time.Millisecond,
		Sleep:       func(d time.Duration) { slept = append(slept, d) },
	})
	if !errors.Is(err, dialErr) {
		t.Fatalf("err = %v, want wrapped dial error", err)
	}
	// MaxRetries=4 allows 4 backoffs; the 5th consecutive failure ends it.
	if len(slept) != 4 {
		t.Fatalf("backed off %d times, want 4", len(slept))
	}
	caps := []time.Duration{100, 200, 400, 400} // ms, doubling then capped
	for i, d := range slept {
		lo, hi := caps[i]*time.Millisecond/2, caps[i]*time.Millisecond
		if d < lo || d >= hi {
			t.Fatalf("backoff %d = %v, want in [%v, %v)", i, d, lo, hi)
		}
	}
}

// TestResilientClientProtocolErrorNotRetried: a server speaking
// garbage must fail the client immediately — redialing will not fix a
// protocol mismatch.
func TestResilientClientProtocolErrorNotRetried(t *testing.T) {
	ln := newPipeListener(1)
	defer ln.Close()
	var wg sync.WaitGroup
	scriptedCoordinator(t, ln, &wg, func(cs *connStream) {
		if !expectJoin(t, cs) {
			return
		}
		_ = cs.writeMsg(MsgType(99), nil)
	})
	dials := 0
	err := RunResilientClient(ClientConfig{
		Dial:  func() (net.Conn, error) { dials++; return ln.Dial(), nil },
		Train: func(int, *model.StateDict) (*model.StateDict, int, error) { return nil, 0, nil },
		Sleep: func(time.Duration) {},
	})
	wg.Wait()
	if !errors.Is(err, ErrProtocol) {
		t.Fatalf("err = %v, want ErrProtocol", err)
	}
	if dials != 1 {
		t.Fatalf("client dialed %d times on a protocol error, want 1", dials)
	}
}
