package transport

import (
	"net"
	"sync"
	"testing"

	"fedsz/internal/core"
	"fedsz/internal/fl"
	"fedsz/internal/lossy"
	"fedsz/internal/model"
	"fedsz/internal/nn"
)

// pipeListener adapts a channel of pre-connected net.Pipe ends to
// net.Listener, so the server handler runs against in-memory
// connections — no sockets, fully deterministic.
type pipeListener struct {
	conns chan net.Conn
	once  sync.Once
	done  chan struct{}
}

func newPipeListener(capacity int) *pipeListener {
	return &pipeListener{conns: make(chan net.Conn, capacity), done: make(chan struct{})}
}

func (l *pipeListener) Dial() net.Conn {
	server, client := net.Pipe()
	l.conns <- server
	return client
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *pipeListener) Addr() net.Addr {
	return &net.UnixAddr{Name: "pipe", Net: "unix"}
}

// runPipeFederation drives one full server/client exchange over
// net.Pipe with the given codec and returns the final global model.
func runPipeFederation(t *testing.T, codec fl.Codec, clients, rounds int) *model.StateDict {
	t.Helper()
	srv, err := NewOrchestrated(OrchestratedConfig{MinClients: clients, Rounds: rounds, Codec: codec})
	if err != nil {
		t.Fatal(err)
	}
	ln := newPipeListener(clients)
	defer ln.Close()

	initial := nn.MobileNetV2Mini(48, 4, 7).StateDict()
	var wg sync.WaitGroup
	clientErrs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			conn := ln.Dial()
			defer conn.Close()
			clientErrs[i] = RunClient(conn, codec, func(round int, global *model.StateDict) (*model.StateDict, int, error) {
				// Echo-style client: perturbing nothing keeps the
				// exchange deterministic; the transport and codec paths
				// are what is under test.
				return global, 10 + i, nil
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
	return final
}

// TestPipeFederationStreamingCodec exercises the full pipelined
// protocol — streamed broadcast, streamed FedSZ uplink — over net.Pipe
// and checks the model survives the round trip within the error bound.
func TestPipeFederationStreamingCodec(t *testing.T) {
	codec, err := fl.NewFedSZCodec(core.Config{Bound: lossy.RelBound(1e-3)})
	if err != nil {
		t.Fatal(err)
	}
	initial := nn.MobileNetV2Mini(48, 4, 7).StateDict()
	final := runPipeFederation(t, codec, 2, 3)
	if final.Len() != initial.Len() {
		t.Fatalf("final model has %d entries, want %d", final.Len(), initial.Len())
	}
	// Echo clients mean the aggregate is the (lossy) identity: every
	// tensor must come back close to the broadcast model.
	finalEntries := final.Entries()
	for i, e := range initial.Entries() {
		if e.DType != model.Float32 {
			continue
		}
		fe := finalEntries[i]
		if fe.Name != e.Name {
			t.Fatalf("entry %d: %q != %q", i, fe.Name, e.Name)
		}
		wd, gd := e.Tensor.Data(), fe.Tensor.Data()
		mn, mx := wd[0], wd[0]
		for _, v := range wd {
			if v < mn {
				mn = v
			}
			if v > mx {
				mx = v
			}
		}
		// Three rounds of REL 1e-3 recompression accumulate bounded
		// error per round.
		tol := 3.5e-3 * float64(mx-mn)
		if tol == 0 {
			tol = 1e-6
		}
		for j := range wd {
			d := float64(wd[j]) - float64(gd[j])
			if d < 0 {
				d = -d
			}
			if d > tol {
				t.Fatalf("entry %q[%d]: drift %g > %g", e.Name, j, d, tol)
			}
		}
	}
}

// TestPipeFederationPlain runs the net.Pipe exchange with the plain
// streaming codec, which must survive the pipelined protocol
// bit-exactly.
func TestPipeFederationPlain(t *testing.T) {
	initial := nn.MobileNetV2Mini(48, 4, 7).StateDict()
	final := runPipeFederation(t, fl.PlainCodec{}, 2, 2)
	if final.Len() != initial.Len() {
		t.Fatalf("final model has %d entries, want %d", final.Len(), initial.Len())
	}
	finalEntries := final.Entries()
	for i, e := range initial.Entries() {
		if e.DType != model.Float32 {
			continue
		}
		wd, gd := e.Tensor.Data(), finalEntries[i].Tensor.Data()
		for j := range wd {
			if wd[j] != gd[j] {
				t.Fatalf("entry %q[%d]: %v != %v", e.Name, j, gd[j], wd[j])
			}
		}
	}
}
