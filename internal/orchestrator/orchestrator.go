// Package orchestrator is the federated coordination subsystem: an
// event-driven replacement for the lock-step round loop the repo
// started with. It owns
//
//   - a client registry with dynamic join/leave,
//   - per-round client sampling with over-provisioning,
//   - round lifecycle with straggler drop (the driver enforces the
//     deadline on its clock — wall time in the TCP server, virtual
//     time in the simulators — and the round accounts the drops).
//
// There is one aggregation discipline, the synchronous FedAvg round:
// sample, collect until the target or the deadline, commit. It runs
// through the streaming sharded Aggregator: decoded tensor entries
// fold into per-tensor weighted sums as they arrive off each
// connection, so server memory is one float64 accumulator plus
// in-flight updates instead of every client's decoded state dict held
// until round end.
//
// The coordinator is deliberately clock-free: drivers (package
// transport for TCP, package fl and the bench scale experiment for
// simulation) decide when deadlines fire and then Commit the round.
// That keeps every scheduling decision deterministic under a seed and
// testable without timers.
package orchestrator

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"fedsz/internal/model"
)

// DropReason classifies why a client's pending work was withdrawn, so
// OnDrop consumers can tell a straggler (re-sample it next round) from
// a corrupt uplink (quarantine, alert) from an ordinary departure.
type DropReason int

const (
	// DropUnknown is the zero reason: the driver did not classify the
	// withdrawal (legacy call sites, generic aborts).
	DropUnknown DropReason = iota
	// DropLeave is a registry departure: the client disconnected or
	// deregistered outside any contribution.
	DropLeave
	// DropDeadline is a straggler cut: the driver's round deadline
	// fired before the client's update arrived.
	DropDeadline
	// DropCorrupt is an integrity rejection: the client's frame failed
	// decode (checksum mismatch or structural corruption), and its
	// partial folds were withdrawn before commit.
	DropCorrupt
	// DropDisconnect is a mid-round transport death: the connection
	// failed while an update was expected or in flight.
	DropDisconnect

	// dropReasonCount bounds the enum for per-reason metric tables.
	dropReasonCount
)

func (r DropReason) String() string {
	switch r {
	case DropUnknown:
		return "unknown"
	case DropLeave:
		return "leave"
	case DropDeadline:
		return "deadline"
	case DropCorrupt:
		return "corrupt"
	case DropDisconnect:
		return "disconnect"
	default:
		return fmt.Sprintf("reason(%d)", int(r))
	}
}

// Config parameterizes a Coordinator.
type Config struct {
	// ClientsPerRound is the sampling target K (0 = every joined client
	// participates).
	ClientsPerRound int
	// OverProvision over-samples rounds by this factor (≥ 1):
	// ceil(K·OverProvision) clients are asked to train so the round
	// can close as soon as the fastest K arrive. 0 means 1.
	OverProvision float64
	// RoundDeadline is the advisory straggler cutoff. The coordinator
	// never arms a timer itself; drivers read it via Round.Deadline
	// and enforce it on their own (wall or virtual) clock.
	RoundDeadline time.Duration
	// Shards is the aggregator shard count (0 = auto).
	Shards int
	// OnDrop, if non-nil, observes every client whose pending work the
	// coordinator withdraws: a registry Leave, a round straggler Drop,
	// or an aborted contribution. It is invoked outside the coordinator
	// and round locks, on the goroutine that triggered the withdrawal,
	// exactly once per withdrawal. The reason distinguishes stragglers
	// from corruption from departures; drivers that cannot classify
	// pass DropUnknown.
	OnDrop func(clientID string, reason DropReason)
	// Seed drives client sampling.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.OverProvision < 1 {
		c.OverProvision = 1
	}
	return c
}

// RoundStats accounts one committed aggregation step.
type RoundStats struct {
	Round     int   // commit sequence number
	Version   int   // global model version after the commit
	Sampled   int   // clients asked to train
	Committed int   // participants whose contribution committed
	Folded    int   // client-level updates inside the commit (> Committed when regional partial sums fold whole regions)
	Dropped   int   // sampled clients that never committed (stragglers, deaths)
	AggMemory int64 // aggregator resident bytes during the round
}

// Coordinator is the orchestration core: registry, sampler and round
// state machine. All methods are safe for concurrent use — connection
// handlers join, leave and submit while the round driver starts and
// commits rounds.
type Coordinator struct {
	cfg Config

	mu      sync.Mutex
	clients map[string]int // id → index in order
	order   []string       // join order; swap-removed on leave
	rng     *rand.Rand
	version int // commits so far: each round commits one version
	global  *model.StateDict
	round   *Round
	agg     *Aggregator // the one aggregator every round folds into
}

// NewCoordinator builds a coordinator seeded with the initial global
// model.
func NewCoordinator(cfg Config, initial *model.StateDict) (*Coordinator, error) {
	if initial == nil || initial.Len() == 0 {
		return nil, errors.New("orchestrator: nil or empty initial global model")
	}
	cfg = cfg.withDefaults()
	return &Coordinator{
		cfg:     cfg,
		clients: make(map[string]int),
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		global:  initial,
	}, nil
}

// Config returns the coordinator's (defaulted) configuration.
func (c *Coordinator) Config() Config { return c.cfg }

// Join registers a client. Joining is idempotent-hostile: a duplicate
// id is an error, since two live connections claiming one identity is
// a protocol violation the caller must resolve.
func (c *Coordinator) Join(id string) error {
	if id == "" {
		return errors.New("orchestrator: empty client id")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.clients[id]; ok {
		return fmt.Errorf("orchestrator: client %q already joined", id)
	}
	c.clients[id] = len(c.order)
	c.order = append(c.order, id)
	return nil
}

// Leave removes a client from the registry and notifies OnDrop. An
// in-flight round keeps its own participant set: the departed client
// simply never commits and is accounted as dropped at round close.
func (c *Coordinator) Leave(id string) {
	c.mu.Lock()
	i, ok := c.clients[id]
	if !ok {
		c.mu.Unlock()
		return
	}
	last := len(c.order) - 1
	c.order[i] = c.order[last]
	c.clients[c.order[i]] = i
	c.order = c.order[:last]
	delete(c.clients, id)
	c.mu.Unlock()
	c.notifyDrop(id, DropLeave)
}

// notifyDrop delivers a withdrawal to the OnDrop hook. Callers must
// not hold coordinator or round locks.
func (c *Coordinator) notifyDrop(id string, reason DropReason) {
	dropCounter(reason).Inc()
	if c.cfg.OnDrop != nil {
		c.cfg.OnDrop(id, reason)
	}
}

// NumClients returns the current registry size.
func (c *Coordinator) NumClients() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.order)
}

// Clients returns the registered ids in join order (modulo leaves).
func (c *Coordinator) Clients() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.order...)
}

// Global returns the current model version and state.
func (c *Coordinator) Global() (int, *model.StateDict) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.version, c.global
}

// sampleLocked draws the next round's participants: ceil(K·over)
// clients uniformly without replacement, capped at the registry size.
func (c *Coordinator) sampleLocked() (participants []string, target int) {
	n := len(c.order)
	k := c.cfg.ClientsPerRound
	if k <= 0 || k > n {
		k = n
	}
	sampled := int(math.Ceil(float64(k) * c.cfg.OverProvision))
	if sampled > n {
		sampled = n
	}
	perm := c.rng.Perm(n)[:sampled]
	participants = make([]string, sampled)
	for i, p := range perm {
		participants[i] = c.order[p]
	}
	return participants, k
}

// StartRound samples participants and opens a synchronous round. Only
// one round may be open at a time; the previous round must Commit (or
// be abandoned via Cancel) first.
func (c *Coordinator) StartRound() (*Round, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.round != nil {
		return nil, errors.New("orchestrator: a round is already open")
	}
	if len(c.order) == 0 {
		return nil, errors.New("orchestrator: no clients joined")
	}
	participants, target := c.sampleLocked()
	c.agg = c.agg.NextRound(c.global, c.cfg.Shards)
	r := &Round{
		coord:    c,
		number:   c.version,
		version:  c.version,
		deadline: c.cfg.RoundDeadline,
		target:   target,
		agg:      c.agg,
		openedAt: time.Now(),
		state:    make(map[string]int, len(participants)),
	}
	r.participants = participants
	for _, id := range participants {
		r.state[id] = participantSampled
	}
	c.round = r
	return r, nil
}

// commitRound installs a round's aggregate as the new global model.
func (c *Coordinator) commitRound(r *Round, agg *model.StateDict) (int, RoundStats) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.global = agg
	c.version++
	if c.round == r {
		c.round = nil
	}
	stats := RoundStats{
		Round:     r.number,
		Version:   c.version,
		Sampled:   len(r.participants),
		Committed: r.committed,
		Folded:    r.agg.Updates(),
		Dropped:   len(r.participants) - r.committed,
		AggMemory: r.agg.MemoryBytes(),
	}
	return c.version, stats
}

func (c *Coordinator) cancelRound(r *Round) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.round == r {
		c.round = nil
	}
}
