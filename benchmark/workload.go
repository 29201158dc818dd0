package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"fedsz/internal/core"
	"fedsz/internal/fl"
	"fedsz/internal/lossy"
	"fedsz/internal/model"
	"fedsz/internal/netsim"
	"fedsz/internal/orchestrator"
	"fedsz/internal/transport"
)

const (
	// numClients is nproc on the reference box: one goroutine and one
	// connection per leaf, closed loop.
	numClients   = 2
	warmupRounds = 5
	auditRounds  = 2
	// byteRounds is how many timed rounds the two byte metrics cover. A
	// fixed count, not the whole window, so that they repeat to the byte
	// for a seed however many rounds the window fits.
	byteRounds = 20
	// modelSeed fixes the initial global: every run starts from the same
	// pretrained-like checkpoint and --seed drives the updates. Weights
	// drawn per seed move a tensor's value range, and with it the REL
	// bound and the compressed size, by 2 % from seed to seed.
	modelSeed = 42
)

// workload is one federation shape. Every workload runs MobileNetV2 at
// width divisor div with numClients leaves.
type workload struct {
	name  string
	why   string
	div   int
	plain bool    // fl.PlainCodec on both ends instead of FedSZ (sz2, REL 1e-2, blosclz)
	bps   float64 // link rate, both directions; 0 = unshaped loopback
	hier  bool    // one transport.Edge between the coordinator and the leaves
}

var workloads = []workload{
	{name: "flat_lan", div: 1,
		why: "CPU-bound: FedSZ encode, decode-fold and the raw downlink marshal of a 14 MB model on unshaped loopback"},
	{name: "flat_wan100", div: 4, bps: netsim.Mbps(100),
		why: "wire-bound: a 2 MB model on 100 Mbps links, where the raw downlink S/B and the uplink S'/B set the round"},
	{name: "flat_plain", div: 1, plain: true,
		why: "bypasses every compressor: the uncompressed arm of Eqn. 1, all framing, marshal and aggregator fold"},
	{name: "hier_lan", div: 1, hier: true,
		why: "edge tier: per-member relay, regional fold and the float64 partial-sum codec between edge and coordinator"},
}

func workloadByName(name string) (workload, bool) {
	for _, wl := range workloads {
		if wl.name == name {
			return wl, true
		}
	}
	return workload{}, false
}

func (wl workload) newCodec() (fl.Codec, error) {
	if wl.plain {
		return fl.PlainCodec{}, nil
	}
	return fl.NewFedSZCodec(core.Config{})
}

// runSpec is one federation run of a workload.
type runSpec struct {
	wl     workload
	seed   int64
	warmup int           // discarded rounds (at least 1); pools and lazy set-up fill
	window time.Duration // timed window: rounds are timed until it has elapsed
	rounds int           // if > 0, exactly this many timed rounds instead of a window
	audit  int           // untimed rounds after the window, each checked against exact FedAvg
	// refSeconds times the host kernel every few seconds of the window,
	// between rounds, so the caller can report reference seconds (see
	// hostspeed.go).
	refSeconds bool
	// setupOnly stops at the first committed round: a set-up probe.
	setupOnly bool
	tr        *tracer // nil = decorators absent
	// codec replaces the workload's codec; a test uses it to break the bound.
	codec func() (fl.Codec, error)
}

// fedResult is what one federation run measured.
type fedResult struct {
	setup       time.Duration   // start of set-up to the last leaf's first TrainFunc
	walls       []time.Duration // timed rounds: interval between successive OnRound calls
	window      time.Duration   // the timed rounds' wall time
	cpu         time.Duration   // getrusage user+sys over the timed rounds
	hostPasses  []float64       // host kernel bursts taken during the window
	allocBytes  uint64          // runtime.MemStats.TotalAlloc over the window
	upBytes     int64           // leaf socket bytes over the first byteRounds timed rounds
	downBytes   int64
	byteUpdates int
	attempted   int // updates asked for over every round run
	folded      int // updates inside a committed global
	violations  int // audit rounds: elements outside the bound
	globalHash  uint64
	modelBytes  int64
	firstTimed  int   // round number of the first timed round
	partials    []int // hier: wire size of each partial-sum frame
}

// federation is the state behind one run's OnRound/TrainFunc hooks.
type federation struct {
	spec runSpec
	srv  *transport.Orchestrated
	res  fedResult

	// Touched only by OnRound, which the coordinator calls from its
	// serve loop between rounds.
	lastRound  time.Time
	t0         time.Time
	cpu0       time.Duration
	alloc0     uint64
	host       *hostKernel // nil unless spec.refSeconds
	lastBurst  time.Time
	burstWall  time.Duration // charged to no round, nor to the window
	burstCPU   time.Duration
	up0, down0 int64
	winOpen    bool
	auditFrom  int

	auditing atomic.Bool // leaves keep their uncompressed update while set

	mu         sync.Mutex
	conns      []*meteredConn
	firstTrain time.Time
	kept       [numClients]*model.StateDict
}

// runFederation builds the workload's federation on TCP loopback, runs
// it to the end of spec, tears it down and waits for every goroutine.
func runFederation(spec runSpec) (*fedResult, error) {
	start := time.Now()
	f := &federation{spec: spec, auditFrom: -1}
	if spec.refSeconds {
		f.host = newHostKernel()
	}
	wl := spec.wl
	initial := model.BuildStateDict(model.MobileNetV2(wl.div), modelSeed)
	f.res.modelBytes = initial.SizeBytes()
	f.res.firstTimed = spec.warmup

	// Both listeners are bound before any peer dials.
	coordLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	defer coordLn.Close()
	aggCodec, err := f.newCodec(nil)
	if err != nil {
		return nil, err
	}
	minClients := numClients
	if wl.hier {
		minClients = 1 // the edge is the coordinator's only participant
	}
	f.srv, err = transport.NewOrchestrated(transport.OrchestratedConfig{
		Codec:        aggCodec,
		MinClients:   minClients,
		Rounds:       math.MaxInt32, // OnRound ends the run with Shutdown
		BandwidthBps: wl.bps,
		OnRound:      f.onRound,
	})
	if err != nil {
		return nil, err
	}

	var wg sync.WaitGroup
	peerErrs := make(chan error, numClients+1)
	peer := func(what string, run func() error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := run(); err != nil {
				peerErrs <- fmt.Errorf("%s: %w", what, err)
				f.srv.Shutdown() // or Serve waits for a peer that will never come
			}
		}()
	}
	leafAddr := coordLn.Addr().String()
	if wl.hier {
		edgeLn, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("listen: %w", err)
		}
		defer edgeLn.Close()
		coordAddr := leafAddr
		edge, err := transport.NewEdge(transport.EdgeConfig{
			Upstream:   func() (net.Conn, error) { return net.Dial("tcp", coordAddr) },
			Codec:      aggCodec,
			MinClients: numClients,
			Checksum:   true,
			OnPartial: func(_, _, wireBytes int) {
				f.mu.Lock()
				f.res.partials = append(f.res.partials, wireBytes)
				f.mu.Unlock()
			},
		})
		if err != nil {
			return nil, err
		}
		peer("edge", func() error { return edge.Serve(edgeLn) })
		leafAddr = edgeLn.Addr().String()
	}
	for i := 0; i < numClients; i++ {
		i := i
		peer(fmt.Sprintf("client %d", i), func() error { return f.runClient(i, leafAddr) })
	}

	_, serveErr := f.srv.Serve(coordLn, initial)
	wg.Wait()
	close(peerErrs)
	if serveErr != nil {
		return nil, fmt.Errorf("coordinator: %w", serveErr)
	}
	if err := <-peerErrs; err != nil {
		return nil, err
	}
	f.res.setup = f.firstTrain.Sub(start)
	return &f.res, nil
}

// newCodec returns a fresh codec for one peer, wrapped when tracing.
func (f *federation) newCodec(ct *clientTrace) (fl.Codec, error) {
	build := f.spec.codec
	if build == nil {
		build = f.spec.wl.newCodec
	}
	c, err := build()
	if err != nil {
		return nil, err
	}
	if f.spec.tr != nil {
		c = &tracedCodec{Codec: c, tr: f.spec.tr, ct: ct}
	}
	return c, nil
}

// runClient is one leaf: dial, join, then answer every global with a
// synthetic update until the tier above shuts down.
func (f *federation) runClient(i int, addr string) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	var ct *clientTrace
	if f.spec.tr != nil {
		ct = &clientTrace{tr: f.spec.tr, id: i, round: -1}
	}
	mc := &meteredConn{Conn: netsim.Limit(conn, f.spec.wl.bps), ct: ct}
	f.mu.Lock()
	f.conns = append(f.conns, mc)
	f.mu.Unlock()
	codec, err := f.newCodec(ct)
	if err != nil {
		return err
	}
	err = transport.RunClient(mc, codec, func(round int, global *model.StateDict) (*model.StateDict, int, error) {
		start := time.Now()
		if round == 0 {
			f.mu.Lock()
			if start.After(f.firstTrain) {
				f.firstTrain = start
			}
			f.mu.Unlock()
		}
		if ct != nil {
			ct.enterTrain(round, start)
		}
		perturb(global, f.spec.seed, i, round)
		if f.auditing.Load() {
			f.mu.Lock()
			f.kept[i] = global
			f.mu.Unlock()
		}
		if ct != nil {
			end := time.Now()
			ct.tr.add(spanTrain, spanRound, round, i, start, end, end.Sub(start), 0)
		}
		return global, 100 + i, nil
	})
	if ct != nil {
		ct.flushWrites()
	}
	return err
}

// perturb is the synthetic local training step: a seeded ±1e-3 nudge to
// every 7th element of the leaf's own copy of the global. No nn, no
// dataset — the benchmark measures communication, not SGD.
func perturb(sd *model.StateDict, seed int64, client, round int) {
	x := uint64(seed)*0x9E3779B97F4A7C15 + uint64(client)<<32 + uint64(round)
	for _, e := range sd.Entries() {
		if e.DType != model.Float32 {
			continue
		}
		data := e.Tensor.Data()
		for j := 0; j < len(data); j += 7 {
			// splitmix64
			x += 0x9E3779B97F4A7C15
			z := x
			z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
			z = (z ^ (z >> 27)) * 0x94D049BB133111EB
			z ^= z >> 31
			data[j] += float32((float64(z>>11)/(1<<53)*2 - 1) * 1e-3)
		}
	}
}

// onRound is OrchestratedConfig.OnRound: the coordinator calls it from
// its serve loop after each commit and before the next broadcast, so it
// is where rounds are timed and where the run moves from warm-up to the
// timed window to the audit rounds.
func (f *federation) onRound(round int, global *model.StateDict, st orchestrator.RoundStats) {
	now := time.Now()
	f.res.attempted += numClients
	f.res.folded += st.Folded
	if f.spec.tr != nil {
		f.spec.tr.endRound(round, f.lastRound, now)
	}
	prev := f.lastRound
	f.lastRound = now
	if f.spec.setupOnly {
		f.finish(global)
		return
	}
	timed := round - f.spec.warmup + 1 // timed rounds completed, this one included
	switch {
	case timed == 0:
		f.openWindow()
	case timed > 0 && f.winOpen:
		f.res.walls = append(f.res.walls, now.Sub(prev))
		if timed == byteRounds {
			f.closeBytes(timed)
		}
		done := now.Sub(f.t0) >= f.spec.window
		if f.spec.rounds > 0 {
			done = timed >= f.spec.rounds
		}
		if !done {
			if f.host != nil && now.Sub(f.lastBurst) >= burstEvery {
				f.hostBurst()
			}
			return
		}
		f.closeWindow(now, timed)
		if f.spec.audit == 0 {
			f.finish(global)
			return
		}
		f.auditFrom = round + 1
		f.auditing.Store(true)
	case f.auditFrom >= 0:
		f.res.violations += f.auditRound(global)
		if round+1 == f.auditFrom+f.spec.audit {
			f.finish(global)
		}
	}
}

func (f *federation) finish(global *model.StateDict) {
	f.res.globalHash = hashStateDict(global)
	f.srv.Shutdown()
}

func (f *federation) socketBytes() (up, down int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, c := range f.conns {
		up += c.tx.Load()
		down += c.rx.Load()
	}
	return up, down
}

// openWindow starts the timed window at the end of the last warm-up
// round. The next round's wall starts once its bookkeeping is done.
func (f *federation) openWindow() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	f.alloc0 = ms.TotalAlloc
	f.up0, f.down0 = f.socketBytes()
	f.winOpen = true
	f.cpu0 = processCPU()
	f.t0 = time.Now()
	f.lastRound = f.t0
	if f.host != nil {
		f.hostBurst()
	}
}

// hostBurst times the host kernel between two rounds. Its wall and CPU
// time are charged to no round and taken out of the window.
func (f *federation) hostBurst() {
	start, cpu := time.Now(), processCPU()
	f.res.hostPasses = append(f.res.hostPasses, f.host.pass())
	f.lastBurst = time.Now()
	f.lastRound = f.lastBurst
	f.burstWall += f.lastBurst.Sub(start)
	f.burstCPU += processCPU() - cpu
}

func (f *federation) closeBytes(timed int) {
	up, down := f.socketBytes()
	f.res.upBytes, f.res.downBytes = up-f.up0, down-f.down0
	f.res.byteUpdates = timed * numClients
}

func (f *federation) closeWindow(now time.Time, timed int) {
	f.res.window = now.Sub(f.t0) - f.burstWall
	f.res.cpu = processCPU() - f.cpu0 - f.burstCPU
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	f.res.allocBytes = ms.TotalAlloc - f.alloc0
	if f.host != nil {
		f.hostBurst()
	}
	if f.res.byteUpdates == 0 { // the window held fewer than byteRounds rounds
		f.closeBytes(timed)
	}
	f.winOpen = false
}

// auditRound counts the elements of a committed global that lie outside
// the bound: further from the exact FedAvg of the leaves' uncompressed
// updates than the weight-averaged per-tensor absolute bound (REL 1e-2
// of each update's value range on the lossy path, zero elsewhere, so a
// plain federation must be bit-exact).
func (f *federation) auditRound(global *model.StateDict) int {
	f.mu.Lock()
	kept := f.kept
	f.mu.Unlock()
	var total float64
	weights := make([]float64, numClients)
	for i := range weights {
		weights[i] = float64(100 + i)
		total += weights[i]
	}
	bad := 0
	for _, ref := range kept[0].Entries() {
		got, ok := global.Get(ref.Name)
		if !ok || got.DType != ref.DType || got.NumElements() != ref.NumElements() {
			bad += ref.NumElements()
			continue
		}
		if ref.DType == model.Int64 {
			for j, v := range ref.Ints {
				if got.Ints[j] != v {
					bad++
				}
			}
			continue
		}
		lossyPath := !f.spec.wl.plain && ref.IsWeightNamed() && ref.NumElements() > core.DefaultThreshold
		exact := make([]float64, ref.NumElements())
		var allowed float64
		for i, sd := range kept {
			e, _ := sd.Get(ref.Name)
			data := e.Tensor.Data()
			for j, v := range data {
				exact[j] += weights[i] * float64(v)
			}
			if lossyPath {
				abs, err := lossy.RelBound(core.DefaultBound).Resolve(data)
				if err != nil {
					return bad + ref.NumElements()
				}
				allowed += weights[i] * abs / total
			}
		}
		for j, v := range got.Tensor.Data() {
			want := float32(exact[j] / total)
			if allowed == 0 {
				if v != want {
					bad++
				}
				continue
			}
			// One float32 ulp of slack: the decoded values and the
			// committed average are each rounded to float32.
			if math.Abs(float64(v)-float64(want)) > allowed+math.Abs(float64(want))*1.2e-7 {
				bad++
			}
		}
	}
	return bad
}

func hashStateDict(sd *model.StateDict) uint64 {
	h := fnv.New64a()
	if err := core.MarshalStateDictTo(h, sd); err != nil {
		panic(err) // a committed global always serializes
	}
	return h.Sum64()
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// errNoRounds reports a run whose window closed before any round was timed.
var errNoRounds = errors.New("no timed rounds")
