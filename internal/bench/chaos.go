package bench

import (
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"fedsz/internal/core"
	"fedsz/internal/fl"
	"fedsz/internal/lossy"
	"fedsz/internal/model"
	"fedsz/internal/netsim"
	"fedsz/internal/nn"
	"fedsz/internal/orchestrator"
	"fedsz/internal/stats"
	"fedsz/internal/transport"
)

// chaosScenario is one fault regime of the chaos experiment.
type chaosScenario struct {
	name string
	// corruptPct is the expected percentage of update frames that take
	// at least one bit flip (converted to a per-byte rate via the
	// probe frame size).
	corruptPct float64
	// killPct is the per-protocol-message probability (in percent)
	// that the client's connection dies mid-write.
	killPct float64
	// restart crashes the coordinator halfway (no goodbye, no final
	// checkpoint) and resumes a fresh server from the last periodic
	// snapshot.
	restart bool
}

// chaosResult aggregates one scenario's observable outcomes.
type chaosResult struct {
	rounds      int   // committed rounds (target met = completion)
	committed   int   // updates folded across all rounds
	corrupt     int   // DropCorrupt quarantines
	disconnect  int   // DropDisconnect withdrawals
	deadline    int   // DropDeadline straggler cuts
	reconnects  int   // client redials beyond each client's first
	flips       int   // bits flipped on the wire
	kills       int   // connections killed mid-write
	restarts    int   // coordinator crash/recover cycles
	uplinkBytes int64 // bytes clients pushed onto the wire
}

// countingConn tallies write-path bytes under the fault injectors, so
// the harness can report retransmission overhead.
type countingConn struct {
	net.Conn
	n *int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	atomic.AddInt64(c.n, int64(n))
	return n, err
}

// Chaos is the fault-injection experiment behind BENCH_chaos.json: a
// real TCP loopback federation — checksummed FedSZ uplinks, resilient
// clients, PaperMix per-client bandwidth — swept across fault regimes
// from a clean network to heavy bit-flip corruption plus mid-write
// connection kills plus a coordinator crash/restore. Every scenario
// must complete its full round budget, and the harness verifies the
// integrity invariant directly: clients shift the model by known
// per-client constants, so any corrupt frame that folded would throw
// the global model outside the honest convex hull (or to NaN) and
// fail the run.
func Chaos(opts Options) (*Table, error) {
	opts = opts.withDefaults()
	clients, rounds := 8, 8
	if opts.Quick {
		clients, rounds = 4, 4
	}

	mkCodec := func() (fl.Codec, error) {
		return fl.NewFedSZCodec(core.Config{
			Lossy:    core.LossySZ2,
			Bound:    lossy.RelBound(1e-3),
			Checksum: true,
		})
	}
	initial := nn.MobileNetV2Mini(48, 4, opts.Seed).StateDict()
	probeCodec, err := mkCodec()
	if err != nil {
		return nil, err
	}
	probe, _, err := probeCodec.Encode(initial)
	if err != nil {
		return nil, err
	}
	frameBytes := len(probe)

	scenarios := []chaosScenario{
		{name: "clean"},
		{name: "flip1+kill5", corruptPct: 1, killPct: 5},
		{name: "flip25+kill10", corruptPct: 25, killPct: 10},
		{name: "restart+flip25+kill5", corruptPct: 25, killPct: 5, restart: true},
	}

	t := &Table{
		ID:    "chaos",
		Title: "Fault injection: frame corruption, connection kills, coordinator crash/restore (TCP loopback)",
		Config: map[string]string{
			"clients":     fmt.Sprintf("%d", clients),
			"rounds":      fmt.Sprintf("%d", rounds),
			"frame_bytes": fmt.Sprintf("%d", frameBytes),
			"codec":       "fedsz(sz2, rel 1e-3, crc32c frames)",
			"population":  "netsim.PaperMix per-client uplink bandwidth",
			"seed":        fmt.Sprintf("%d", opts.Seed),
		},
		Header: []string{"scenario", "corrupt%/frame", "kill%/msg", "rounds", "folds",
			"drop.corrupt", "drop.disconnect", "drop.deadline", "reconnects",
			"flips", "kills", "restarts", "uplink_kb", "est_retx_kb", "integrity"},
	}
	for _, sc := range scenarios {
		res, err := runChaosScenario(sc, opts, clients, rounds, frameBytes, initial, mkCodec)
		if err != nil {
			return nil, fmt.Errorf("bench: chaos %s: %w", sc.name, err)
		}
		retx := res.uplinkBytes - int64(res.committed)*int64(frameBytes)
		if retx < 0 {
			retx = 0
		}
		t.Rows = append(t.Rows, []string{
			sc.name, f2(sc.corruptPct), f2(sc.killPct),
			fmt.Sprintf("%d/%d", res.rounds, rounds),
			fmt.Sprintf("%d", res.committed),
			fmt.Sprintf("%d", res.corrupt),
			fmt.Sprintf("%d", res.disconnect),
			fmt.Sprintf("%d", res.deadline),
			fmt.Sprintf("%d", res.reconnects),
			fmt.Sprintf("%d", res.flips),
			fmt.Sprintf("%d", res.kills),
			fmt.Sprintf("%d", res.restarts),
			fmt.Sprintf("%d", res.uplinkBytes/1024),
			fmt.Sprintf("%d", retx/1024),
			"ok",
		})
	}
	t.Notes = []string{
		"every scenario must commit its full round budget; 'integrity ok' means the final global model stayed inside the honest per-client update hull (checked element-wise) — no corrupt frame ever folded",
		"corrupt%/frame calibrates the per-byte bit-flip rate so that percentage of update frames takes >=1 flip; kill%/msg is the per-protocol-message mid-write connection-kill probability",
		"est_retx_kb = uplink bytes beyond committed_folds x frame_bytes: traffic spent on rejected, killed, or re-sent updates",
		"the restart scenario aborts the coordinator at half budget with no goodbye and no final snapshot; recovery resumes from the last periodic checkpoint while clients ride their retry/backoff loop",
	}
	return t, nil
}

// runChaosScenario executes one fault regime end to end and verifies
// the integrity invariant on the final model.
func runChaosScenario(sc chaosScenario, opts Options, clients, rounds, frameBytes int,
	initial *model.StateDict, mkCodec func() (fl.Codec, error)) (*chaosResult, error) {

	flipRate := sc.corruptPct / 100 / float64(frameBytes)
	killRate := sc.killPct / 100
	res := &chaosResult{}

	// Per-client shift constants: the honest hull is [0.01, 0.03] per
	// round, so after R committed rounds every element's total shift
	// must land in [R*0.01, R*0.03] (plus lossy-bound slack).
	deltas := make([]float32, clients)
	for i := range deltas {
		deltas[i] = 0.01 * float32(1+i%3)
	}

	var mu sync.Mutex
	drops := map[orchestrator.DropReason]int{}
	var committedRounds, committedFolds int

	// addr is the coordinator's current address; the restart scenario
	// repoints it when the replacement server binds a fresh port.
	var addr atomic.Value

	listen := func() (net.Listener, error) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		addr.Store(ln.Addr().String())
		return ln, nil
	}
	serve := func(ln net.Listener, srv *transport.Orchestrated) (*model.StateDict, error) {
		defer ln.Close()
		return srv.Serve(ln, initial)
	}
	// Bound before any client goroutine exists, so a client's first dial
	// always finds an address (on a small host the clients otherwise run
	// ahead of the server and load an empty addr).
	ln, err := listen()
	if err != nil {
		return nil, err
	}
	defer ln.Close()

	onDrop := func(id string, reason orchestrator.DropReason) {
		mu.Lock()
		drops[reason]++
		mu.Unlock()
	}
	onRound := func(round int, global *model.StateDict, st orchestrator.RoundStats) {
		mu.Lock()
		committedRounds = round + 1
		committedFolds += st.Committed
		mu.Unlock()
	}

	// Clients: resilient, bandwidth-limited per PaperMix, fault-
	// injected, counted. They retry until the coordinator says
	// shutdown; a client that exhausts its budget against a dead
	// listener at teardown just stops contributing.
	popRNG := stats.NewRNG(opts.Seed + 7)
	profiles := make([]netsim.ClientProfile, clients)
	for i := range profiles {
		profiles[i] = netsim.PaperMix().Sample(popRNG)
	}
	var uplink int64
	var reconnects int64
	var chaosMu sync.Mutex
	var chaosConns []*netsim.ChaosConn
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codec, err := mkCodec()
			if err != nil {
				return
			}
			var dials int64
			_ = transport.RunResilientClient(transport.ClientConfig{
				Dial: func() (net.Conn, error) {
					conn, err := net.Dial("tcp", addr.Load().(string))
					if err != nil {
						return nil, err
					}
					n := atomic.AddInt64(&dials, 1)
					if n > 1 {
						atomic.AddInt64(&reconnects, 1)
					}
					var wrapped net.Conn = &countingConn{Conn: conn, n: &uplink}
					wrapped = netsim.Limit(wrapped, profiles[i].Link.BandwidthBps)
					cc := netsim.Chaos(wrapped, netsim.FaultConfig{
						BitFlipRate: flipRate,
						KillRate:    killRate,
						Seed:        opts.Seed + int64(i)*1000 + n,
					})
					if c, ok := cc.(*netsim.ChaosConn); ok {
						chaosMu.Lock()
						chaosConns = append(chaosConns, c)
						chaosMu.Unlock()
					}
					return cc, nil
				},
				Codec: codec,
				Train: func(round int, global *model.StateDict) (*model.StateDict, int, error) {
					return shiftStateDict(global, deltas[i]), 10, nil
				},
				MaxRetries:   60,
				BaseBackoff:  2 * time.Millisecond,
				MaxBackoff:   30 * time.Millisecond,
				WriteTimeout: 2 * time.Second,
				Seed:         opts.Seed + int64(i),
			})
		}(i)
	}

	mkServer := func(resume *orchestrator.Checkpoint, ckPath string, stopAfter int) (*transport.Orchestrated, error) {
		var srv *transport.Orchestrated
		var err error
		srv, err = transport.NewOrchestrated(transport.OrchestratedConfig{
			Codec:           mustCodec(mkCodec),
			MinClients:      clients,
			Rounds:          rounds,
			RoundDeadline:   5 * time.Second,
			CheckpointPath:  ckPath,
			CheckpointEvery: 1,
			Resume:          resume,
			OnDrop:          onDrop,
			OnRound: func(round int, global *model.StateDict, st orchestrator.RoundStats) {
				onRound(round, global, st)
				if stopAfter > 0 && round+1 >= stopAfter {
					srv.Abort()
				}
			},
		})
		return srv, err
	}

	var final *model.StateDict
	if !sc.restart {
		srv, err := mkServer(nil, "", 0)
		if err != nil {
			return nil, err
		}
		final, err = serve(ln, srv)
		if err != nil {
			return nil, err
		}
	} else {
		dir, err := os.MkdirTemp("", "fedsz-chaos-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		ckPath := filepath.Join(dir, "coord.ckpt")
		srvA, err := mkServer(nil, ckPath, rounds/2)
		if err != nil {
			return nil, err
		}
		if _, err := serve(ln, srvA); !errors.Is(err, transport.ErrAborted) {
			return nil, fmt.Errorf("crash phase: err = %v, want ErrAborted", err)
		}
		ck, err := orchestrator.LoadCheckpoint(ckPath)
		if err != nil {
			return nil, fmt.Errorf("recover: %w", err)
		}
		srvB, err := mkServer(ck, ckPath, 0)
		if err != nil {
			return nil, err
		}
		// The replacement binds a fresh port; until addr is repointed the
		// clients' dials hit the dead one and ride their backoff loop.
		lnB, err := listen()
		if err != nil {
			return nil, err
		}
		final, err = serve(lnB, srvB)
		if err != nil {
			return nil, err
		}
		res.restarts = 1
	}
	wg.Wait()

	mu.Lock()
	res.rounds = committedRounds
	res.committed = committedFolds
	res.corrupt = drops[orchestrator.DropCorrupt]
	res.disconnect = drops[orchestrator.DropDisconnect]
	res.deadline = drops[orchestrator.DropDeadline]
	mu.Unlock()
	res.reconnects = int(atomic.LoadInt64(&reconnects))
	res.uplinkBytes = atomic.LoadInt64(&uplink)
	chaosMu.Lock()
	for _, cc := range chaosConns {
		res.flips += cc.Flipped
		if cc.Killed {
			res.kills++
		}
	}
	chaosMu.Unlock()

	if res.rounds != rounds {
		return nil, fmt.Errorf("committed %d/%d rounds", res.rounds, rounds)
	}
	if err := verifyHull(initial, final, res.rounds); err != nil {
		return nil, err
	}
	return res, nil
}

func mustCodec(mk func() (fl.Codec, error)) fl.Codec {
	c, err := mk()
	if err != nil {
		panic(err)
	}
	return c
}

// shiftStateDict returns a copy of sd with delta added to every float
// element (int entries pass through untouched).
func shiftStateDict(sd *model.StateDict, delta float32) *model.StateDict {
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

// verifyHull is the zero-poison check: after r committed rounds of
// per-client shifts in [0.01, 0.03], every element's total drift must
// sit inside [r*0.01, r*0.03] with lossy-bound slack. A folded bit
// flip in a sign/exponent bit lands far outside; NaN/Inf fail
// outright.
func verifyHull(initial, final *model.StateDict, r int) error {
	slack := float64(r) * 0.005
	lo, hi := float64(r)*0.01-slack, float64(r)*0.03+slack
	for _, e := range final.Entries() {
		if e.DType != model.Float32 || e.Tensor == nil {
			continue
		}
		ie, ok := initial.Get(e.Name)
		if !ok || ie.Tensor == nil {
			return fmt.Errorf("integrity: entry %q appeared from nowhere", e.Name)
		}
		fd, id := e.Tensor.Data(), ie.Tensor.Data()
		for j := range fd {
			diff := float64(fd[j]) - float64(id[j])
			if math.IsNaN(diff) || math.IsInf(diff, 0) || diff < lo || diff > hi {
				return fmt.Errorf("integrity: %s[%d] drifted %v after %d rounds, honest hull [%v, %v] — a corrupt frame folded",
					e.Name, j, diff, r, lo, hi)
			}
		}
	}
	return nil
}
