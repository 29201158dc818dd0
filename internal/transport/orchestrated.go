package transport

import (
	"errors"
	"net"
	"sync/atomic"
	"time"

	"fedsz/internal/fl"
	"fedsz/internal/model"
	"fedsz/internal/obs"
	"fedsz/internal/orchestrator"
)

// OrchestratedConfig parameterizes the orchestrator-backed server.
type OrchestratedConfig struct {
	// Codec decodes client uplinks (nil = fl.PlainCodec).
	Codec fl.Codec
	// MinClients gates the first round: rounds start once this many
	// clients have joined (default 1). Clients keep joining and
	// leaving while training runs.
	MinClients int
	// ClientsPerRound samples this many participants per round
	// (0 = every joined client).
	ClientsPerRound int
	// OverProvision over-samples rounds by this factor (≥1; 0 means
	// 1). Over TCP the round still waits for every sampled
	// participant unless RoundDeadline cuts the tail — a started
	// uplink cannot be cancelled without killing its connection — so
	// pair over-provisioning with a deadline: the extras make it
	// likely the target count arrives before the cutoff. (The
	// virtual-time simulators close at Target exactly.)
	OverProvision float64
	// Rounds is the number of committed rounds to run.
	Rounds int
	// RoundDeadline cuts stragglers on the wall clock: a participant
	// whose update has not fully arrived this long after the round's
	// broadcast is dropped (its connection is closed — mid-stream
	// resynchronization is impossible). 0 waits indefinitely.
	RoundDeadline time.Duration
	// BandwidthBps rate-limits each connection (0 = unlimited).
	BandwidthBps float64
	// Shards is the aggregator shard count (0 = auto).
	Shards int
	// OnRound observes each committed global model.
	OnRound func(round int, global *model.StateDict, stats orchestrator.RoundStats)
	// OnDrop observes every withdrawn client with its typed reason
	// (straggler deadline, corrupt frame, disconnect, departure) —
	// the chaos test counts quarantines through it.
	OnDrop func(clientID string, reason orchestrator.DropReason)
	// Logf, if non-nil, receives join/leave/drop diagnostics.
	Logf func(format string, args ...interface{})
	// CheckpointPath, if non-empty, makes the server durable: after
	// every CheckpointEvery committed rounds (and on graceful
	// shutdown) it atomically snapshots the coordinator — commit
	// counter and global model — to this file. A checkpoint failure is
	// logged, never fatal: losing durability should not kill a live
	// federation.
	CheckpointPath string
	// CheckpointEvery is the commit interval between snapshots
	// (0 = every round).
	CheckpointEvery int
	// Resume, if non-nil, restarts training from a checkpoint: the
	// coordinator resumes its commit counter and global model, and
	// Serve runs only the remaining Rounds−Commits rounds. The initial
	// model passed to Serve is ignored.
	Resume *orchestrator.Checkpoint
}

// Orchestrated is the orchestrator-backed federated server: clients
// join and leave dynamically, every round samples the current
// registry, per-connection failures drop that client and the round
// commits with the remaining updates, and uplinks fold into the
// streaming sharded aggregator as their tensor sections decode — the
// server never materializes a client's full state dict.
type Orchestrated struct {
	cfg     OrchestratedConfig
	t       *tier
	abandon atomic.Bool // Abort: crash semantics, no graceful courtesies
}

// NewOrchestrated validates cfg and returns an orchestrated server.
func NewOrchestrated(cfg OrchestratedConfig) (*Orchestrated, error) {
	if cfg.Rounds <= 0 {
		return nil, errors.New("transport: need at least one round")
	}
	if cfg.MinClients <= 0 {
		cfg.MinClients = 1
	}
	if cfg.Codec == nil {
		cfg.Codec = fl.PlainCodec{}
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...interface{}) {}
	}
	return &Orchestrated{
		cfg: cfg,
		t:   newTier(cfg.Codec, cfg.BandwidthBps, cfg.RoundDeadline, cfg.Logf),
	}, nil
}

// Shutdown asks Serve to stop gracefully: the round in flight (if
// any) drains and commits, a final checkpoint is written when
// durability is configured, and Serve returns the current global
// model with no error. Safe to call from any goroutine (a signal
// handler is the intended caller) and idempotent.
func (s *Orchestrated) Shutdown() { s.t.shutdown() }

// ErrAborted is Serve's result after Abort: the coordinator died
// without completing its round budget.
var ErrAborted = errors.New("transport: server aborted")

// Abort simulates a coordinator crash: Serve stops at the next round
// boundary WITHOUT the graceful-exit courtesies — no final checkpoint
// (recovery must come from the last periodic snapshot) and no
// MsgShutdown to clients (they see their connections die, exactly as
// after a kill -9). Serve returns ErrAborted.
func (s *Orchestrated) Abort() {
	s.abandon.Store(true)
	s.t.shutdown()
}

// Serve accepts clients on ln for as long as training runs, executes
// cfg.Rounds orchestrated rounds starting from initial, and returns
// the final global model. It owns accepted connections and closes
// them (after a best-effort shutdown message) on return.
func (s *Orchestrated) Serve(ln net.Listener, initial *model.StateDict) (*model.StateDict, error) {
	coordCfg := orchestrator.Config{
		ClientsPerRound: s.cfg.ClientsPerRound,
		OverProvision:   s.cfg.OverProvision,
		RoundDeadline:   s.cfg.RoundDeadline,
		Shards:          s.cfg.Shards,
		OnDrop:          s.cfg.OnDrop,
	}
	var coord *orchestrator.Coordinator
	var err error
	committed := 0
	if s.cfg.Resume != nil {
		coord, err = orchestrator.NewCoordinatorFromCheckpoint(coordCfg, s.cfg.Resume)
		if err != nil {
			return nil, err
		}
		committed = s.cfg.Resume.Commits
		s.cfg.Logf("resumed from checkpoint: %d rounds committed", committed)
	} else {
		coord, err = orchestrator.NewCoordinator(coordCfg, initial)
		if err != nil {
			return nil, err
		}
	}

	sk := &coordSink{coord: coord}
	go s.t.acceptLoop(ln, sk)
	defer func() { s.t.close(!s.abandon.Load()) }()

	every := s.cfg.CheckpointEvery
	if every <= 0 {
		every = 1
	}
	roundsRun := 0
	for committed < s.cfg.Rounds {
		if s.t.stopping() {
			break
		}
		// MinClients gates only this process's first round — including
		// the first round after a resume, so a restarted coordinator
		// re-gathers its population instead of racing ahead with the
		// first reconnector while the rest are mid-handshake. Once
		// training is under way it keeps going with whoever remains.
		need := s.cfg.MinClients
		if roundsRun > 0 {
			need = 1
		}
		if err := s.t.wait(need, 0); err != nil {
			return nil, err
		}
		if s.t.stopping() {
			break
		}
		err := s.t.runRound(sk)
		if err == orchestrator.ErrNoUpdates {
			// Every sampled client failed or timed out this round; the
			// registry shrank accordingly. Try again with whoever is
			// left (wait fails fast if nobody can ever join).
			s.cfg.Logf("round aborted: no updates committed")
			continue
		}
		if err != nil {
			return nil, err
		}
		if s.cfg.OnRound != nil {
			s.cfg.OnRound(committed, sk.global, sk.stats)
		}
		committed++
		roundsRun++
		if s.cfg.CheckpointPath != "" && committed%every == 0 {
			s.saveCheckpoint(coord)
		}
	}
	if s.abandon.Load() {
		return nil, ErrAborted
	}
	// A final snapshot on graceful exit — whether the round budget ran
	// out or Shutdown drained us — so a restart resumes exactly here.
	if s.cfg.CheckpointPath != "" {
		s.saveCheckpoint(coord)
	}
	_, global := coord.Global()
	return global, nil
}

// saveCheckpoint snapshots the coordinator to cfg.CheckpointPath. It
// must be called between rounds. Failures are logged, not fatal.
func (s *Orchestrated) saveCheckpoint(coord *orchestrator.Coordinator) {
	ck := coord.Checkpoint()
	if err := orchestrator.SaveCheckpoint(s.cfg.CheckpointPath, ck); err != nil {
		s.cfg.Logf("checkpoint failed: %v", err)
		return
	}
	s.cfg.Logf("checkpoint: %d rounds -> %s", ck.Commits, s.cfg.CheckpointPath)
}

// coordSink is the coordinator's end of the round engine: it mints each
// round's inputs, samples the participants from the coordinator's
// registry, mirrors joins and drops into it, and finishes a round by
// committing the new global model.
type coordSink struct {
	coord *orchestrator.Coordinator

	round  *orchestrator.Round     // the open round
	global *model.StateDict        // what it committed
	stats  orchestrator.RoundStats // and how
}

func (k *coordSink) join(id string) error { return k.coord.Join(id) }

func (k *coordSink) open() (downlink, []string, error) {
	round, err := k.coord.StartRound()
	if err != nil {
		return downlink{}, nil, err
	}
	k.round = round
	_, global := k.coord.Global()
	return downlink{
		// One trace ID per federation round: broadcast to every tier
		// ahead of the round payload, so edge spans (and their trailers)
		// join this round's tree.
		traceID: obs.NewTraceID(),
		round:   round.Number(),
		global:  global,
	}, round.Participants(), nil
}

func (k *coordSink) contributor(id string, weight float64, updates int) (*orchestrator.Contributor, error) {
	if updates > 0 {
		return k.round.PartialContributor(id, weight, updates)
	}
	return k.round.Contributor(id, weight)
}

// withdrawn quarantines the participant for the round and, when its
// connection is gone, removes it from the sampling registry; both fire
// the coordinator's OnDrop hook with their reason.
func (k *coordSink) withdrawn(id string, reason orchestrator.DropReason, gone bool) {
	k.round.Drop(id, reason)
	if gone {
		k.coord.Leave(id)
	}
}

func (k *coordSink) finish(g *gathered) error {
	var err error
	k.global, k.stats, err = k.round.Commit()
	k.round = nil // the sums stay with the coordinator, which empties them in StartRound
	if err != nil && err != orchestrator.ErrNoUpdates {
		return err
	}
	// Record the round's span. Committed/ErrNoUpdates rounds both
	// trace — a round that lost every participant is exactly the one
	// worth inspecting later. Edge span summaries collected this round
	// join the assembler so /rounds/tree can graft each region's subtree
	// onto this span.
	for _, ch := range g.children {
		obs.DefaultAssembler.Attach(g.span.TraceID, ch.ID, ch.Sum)
	}
	g.span.Tier = "coordinator"
	g.span.Version = k.stats.Version
	g.span.Sampled = k.stats.Sampled
	g.span.Committed = k.stats.Committed
	g.span.Dropped = k.stats.Dropped
	g.stamp()
	obs.DefaultTrace.Add(g.span)
	return err
}
