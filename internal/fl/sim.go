package fl

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"fedsz/internal/dataset"
	"fedsz/internal/hier"
	"fedsz/internal/model"
	"fedsz/internal/netsim"
	"fedsz/internal/nn"
	"fedsz/internal/orchestrator"
	"fedsz/internal/stats"
)

// SimConfig parameterizes an in-process federated simulation
// reproducing the paper's setup (§VI: FedAvg, one epoch per client per
// round, simulated bandwidth). Edges == 0 runs the flat coordinator;
// Edges ≥ 1 puts the clients behind that many regional edge
// aggregators.
type SimConfig struct {
	Model            string       // mini model name: "alexnet", "mobilenetv2", "resnet50"
	Dataset          dataset.Spec //
	Clients          int          //
	Rounds           int          //
	LocalEpochs      int          // epochs per client per round (paper: 1)
	SamplesPerClient int          //
	TestSamples      int          //
	BatchSize        int          //
	LR               float32      //
	Momentum         float32      //
	Codec            Codec        // update codec (PlainCodec or FedSZCodec)
	Link             netsim.Link  // every client's uplink when Population is zero
	Seed             int64        //

	// ClientsPerRound samples a subset of clients each round (0 = all),
	// as in large-scale FL deployments. Flat only.
	ClientsPerRound int
	// NonIIDAlpha > 0 partitions client data with Dirichlet(alpha)
	// label skew instead of the IID split.
	NonIIDAlpha float64

	// OverProvision over-samples rounds (≥1; see orchestrator.Config).
	// Flat only.
	OverProvision float64
	// RoundDeadline cuts stragglers whose update would land past this
	// much virtual time after round start (0 = wait for target). A
	// tiered run cuts per region.
	RoundDeadline time.Duration
	// Population samples each client's link/compute profile; the zero
	// profile gives every client Link at nominal compute.
	Population netsim.Profile

	// Edges is the number of regional edge aggregators (0 = flat).
	// Clients are split into this many contiguous regions, uneven when
	// it does not divide the client count; it is capped at Clients.
	Edges int
	// Wire controls the partial frames edges forward upstream
	// (checksum stamping, optional lossless packing).
	Wire hier.WireOptions
	// EdgeLink models the edge→core hop each partial frame crosses
	// (zero = instantaneous). Wrap it in netsim.ContendedWAN to share
	// the trunk across the forwarding edges.
	EdgeLink netsim.Link
}

func (c SimConfig) withDefaults() SimConfig {
	if c.Model == "" {
		c.Model = "alexnet"
	}
	if c.Dataset.Dim == 0 {
		c.Dataset = dataset.CIFAR10()
	}
	if c.Clients == 0 {
		c.Clients = 4 // paper §VI-B: four clients
	}
	if c.Rounds == 0 {
		c.Rounds = 10
	}
	if c.LocalEpochs == 0 {
		c.LocalEpochs = 1
	}
	if c.SamplesPerClient == 0 {
		c.SamplesPerClient = 120
	}
	if c.TestSamples == 0 {
		c.TestSamples = 200
	}
	if c.BatchSize == 0 {
		c.BatchSize = 20
	}
	if c.LR == 0 {
		c.LR = 0.01
	}
	if c.Momentum == 0 {
		c.Momentum = 0.9
	}
	if c.Codec == nil {
		c.Codec = PlainCodec{}
	}
	c.Edges = min(c.Edges, c.Clients)
	return c
}

// validate rejects settings the chosen shape would silently ignore: a
// tiered run trains every client, so it neither samples nor
// over-provisions.
func (c SimConfig) validate() error {
	if c.Edges > 0 && (c.ClientsPerRound > 0 || c.OverProvision > 1) {
		return fmt.Errorf("fl: simulation cannot honour ClientsPerRound or OverProvision with Edges")
	}
	return nil
}

// RoundMetrics captures one round.
type RoundMetrics struct {
	Round        int
	TestAccuracy float64

	// Wall-clock components, mean per folded update (paper Fig. 6
	// breakdown). DecodeTime covers decode plus the fold into the
	// aggregator.
	TrainTime      time.Duration
	EncodeTime     time.Duration
	DecodeTime     time.Duration
	ValidationTime time.Duration

	// CommTime is the virtual arrival of the last folded update: its
	// client's modelled train time plus its transfer, every client on
	// its own link in parallel. A tiered round ends when the last
	// partial frame lands at the core. For the paper's serial ingest
	// link (§VI-C MPI emulation), set Link: netsim.ContendedWAN(link,
	// Clients).
	CommTime time.Duration

	BytesUplink   int64 // compressed client bytes folded
	OriginalBytes int64 // uncompressed equivalent

	// Participants counts the clients asked to train; Dropped those
	// trained but not folded.
	Participants int
	Dropped      int
}

// SimResult is a full simulation trace.
type SimResult struct {
	Config SimConfig
	Rounds []RoundMetrics
	// Tier reports the edge tier's outcomes; nil when flat.
	Tier *HierStats
}

// HierStats aggregates the tier-level outcomes of a tiered run.
type HierStats struct {
	Edges          int   // regions in the tier
	ClientBytes    int64 // tier-1 wire bytes: every folded client→edge uplink
	PartialBytes   int64 // tier-2 wire bytes: every edge→core partial
	Partials       int   // partial frames folded at the core
	ClientDrops    int   // clients cut at the edge tier (stragglers)
	PeakEdgeMemory int64 // largest regional aggregator footprint seen
	PeakCoreMemory int64 // largest coordinator aggregator footprint seen
}

// FinalAccuracy returns the last round's test accuracy.
func (r *SimResult) FinalAccuracy() float64 {
	if len(r.Rounds) == 0 {
		return 0
	}
	return r.Rounds[len(r.Rounds)-1].TestAccuracy
}

// TotalCommTime sums the simulated communication time across rounds.
func (r *SimResult) TotalCommTime() time.Duration {
	var d time.Duration
	for _, m := range r.Rounds {
		d += m.CommTime
	}
	return d
}

// sampleComputeTime is the modelled virtual compute per training sample
// per local epoch of a nominal (ComputeFactor 1) client. The virtual
// schedule is built from this model, never from measured wall time, so
// drops and fold order are functions of the seed alone.
const sampleComputeTime = time.Millisecond

// client is one simulated participant with a fixed link/compute profile.
type client struct {
	id      string
	net     *nn.Network
	data    *dataset.Dataset
	profile netsim.ClientProfile
}

// upload is one client's encoded update on the virtual timeline.
type upload struct {
	c       *client
	payload []byte
	stats   UpdateStats
	samples int
	train   time.Duration // measured wall time
	arrival time.Duration // virtual
	err     error
}

// sim is one simulation's shared state.
type sim struct {
	cfg     SimConfig
	clients []*client
	byID    map[string]*client
	edges   []string // coordinator member ids when tiered; nil when flat
	coord   *orchestrator.Coordinator
	server  *nn.Network
	testX   *nn.Batch
	testY   []int
	jitter  *rand.Rand
	res     *SimResult
}

// RunSim executes the federated simulation on a virtual clock. Each
// round trains its participants in parallel goroutines (wall clock),
// places every update on the virtual timeline, and folds the
// arrivals in that order through the real codec wire format into the
// streaming sharded aggregator until the round fills or the deadline
// cuts the stragglers. Flat, the coordinator samples and folds the
// clients; tiered, every region folds its own clients and forwards one
// partial-sum frame through the real hier codec to the coordinator,
// which commits the same model bits.
func RunSim(cfg SimConfig) (*SimResult, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	s, err := newSim(cfg)
	if err != nil {
		return nil, err
	}
	for round := 0; round < cfg.Rounds; round++ {
		if err := s.syncRound(round); err != nil {
			return nil, fmt.Errorf("fl: round %d: %w", round, err)
		}
	}
	return s.res, nil
}

// newSim builds the data split, the clients, the evaluating server and
// the coordinator with its members.
func newSim(cfg SimConfig) (*sim, error) {
	full := cfg.Dataset.Generate(cfg.Clients*cfg.SamplesPerClient+cfg.TestSamples, cfg.Seed)
	trainFrac := float64(cfg.Clients*cfg.SamplesPerClient) / float64(full.N)
	trainSet, testSet := full.TrainTest(trainFrac, cfg.Seed+1)
	var shards []*dataset.Dataset
	if cfg.NonIIDAlpha > 0 {
		shards = trainSet.SplitDirichlet(cfg.Clients, cfg.NonIIDAlpha, cfg.Seed+2)
	} else {
		shards = trainSet.Split(cfg.Clients)
	}

	s := &sim{
		cfg:    cfg,
		byID:   make(map[string]*client, cfg.Clients),
		server: nn.MiniByName(cfg.Model, cfg.Dataset.Dim, cfg.Dataset.Classes, cfg.Seed),
		jitter: stats.NewRNG(cfg.Seed + 6),
		res:    &SimResult{Config: cfg},
	}
	s.testX, s.testY = testSet.Batch(0, testSet.N)
	var err error
	s.coord, err = orchestrator.NewCoordinator(orchestrator.Config{
		ClientsPerRound: cfg.ClientsPerRound,
		OverProvision:   cfg.OverProvision,
		RoundDeadline:   cfg.RoundDeadline,
		Seed:            cfg.Seed + 5,
	}, s.server.StateDict())
	if err != nil {
		return nil, err
	}
	// Tiered, the coordinator's members are the edges: its fan-in is the
	// region count, not the population.
	if cfg.Edges > 0 {
		s.res.Tier = &HierStats{Edges: cfg.Edges}
		for e := range cfg.Edges {
			s.edges = append(s.edges, fmt.Sprintf("edge-%04d", e))
			if err := s.coord.Join(s.edges[e]); err != nil {
				return nil, err
			}
		}
	}
	profileRNG := stats.NewRNG(cfg.Seed + 4)
	for i := range cfg.Clients {
		c := &client{
			id:      fmt.Sprintf("client-%04d", i),
			net:     nn.MiniByName(cfg.Model, cfg.Dataset.Dim, cfg.Dataset.Classes, cfg.Seed),
			data:    shards[i],
			profile: netsim.ClientProfile{Link: cfg.Link, ComputeFactor: 1},
		}
		if !cfg.Population.IsZero() {
			c.profile = cfg.Population.Sample(profileRNG)
		}
		s.clients = append(s.clients, c)
		s.byID[c.id] = c
		if s.edges == nil {
			if err := s.coord.Join(c.id); err != nil {
				return nil, err
			}
		}
	}
	return s, nil
}

// syncRound runs one round: flat, the coordinator's sampled
// participants fold straight into it; tiered, every client trains and
// folds through its region's edge.
func (s *sim) syncRound(round int) error {
	_, g := s.coord.Global()
	r, err := s.coord.StartRound()
	if err != nil {
		return err
	}
	trainees := s.clients
	if s.edges == nil {
		trainees = nil
		for _, id := range r.Participants() {
			trainees = append(trainees, s.byID[id])
		}
	}
	ups, err := s.trainAll(trainees, g, round)
	if err != nil {
		return err
	}
	m := RoundMetrics{Round: round, Participants: len(ups)}
	if s.edges == nil {
		m.CommTime, err = s.fold(ups, r.Target(), func(u *upload) (*orchestrator.Contributor, error) {
			return r.Contributor(u.c.id, float64(u.samples))
		}, func(u *upload) { r.Drop(u.c.id, orchestrator.DropDeadline) }, &m)
	} else {
		m.CommTime, err = s.forward(r, ups, g, &m)
	}
	if err != nil {
		return err
	}
	g, st, err := r.Commit()
	if err != nil {
		return err
	}
	if hs := s.res.Tier; hs != nil {
		hs.ClientBytes += m.BytesUplink
		hs.ClientDrops += m.Dropped
		hs.PeakCoreMemory = max(hs.PeakCoreMemory, st.AggMemory)
	}
	return s.record(m, m.Participants-m.Dropped, g)
}

// forward folds each contiguous region of ups (in client order) into
// its own aggregator and submits the region's partial sum to r through
// an encoded and decoded hier frame, so checksums and lossless packing
// run end to end. It returns when the last frame lands at the core.
func (s *sim) forward(r *orchestrator.Round, ups []upload, g *model.StateDict, m *RoundMetrics) (time.Duration, error) {
	hs := s.res.Tier
	per, rem := len(ups)/len(s.edges), len(ups)%len(s.edges)
	var span time.Duration
	for e, id := range s.edges {
		n := per
		if e < rem {
			n++
		}
		region := ups[:n]
		ups = ups[n:]
		agg := orchestrator.NewAggregator(g, 0)
		last, err := s.fold(region, n, func(u *upload) (*orchestrator.Contributor, error) {
			return agg.Contributor(float64(u.samples))
		}, nil, m)
		if err != nil {
			return 0, err
		}
		hs.PeakEdgeMemory = max(hs.PeakEdgeMemory, agg.MemoryBytes())
		frame, err := hier.EncodePartial(agg.Partial(), s.cfg.Wire)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", id, err)
		}
		pt, err := hier.DecodePartialFrom(bytes.NewReader(frame))
		if err != nil {
			return 0, fmt.Errorf("%s decode: %w", id, err)
		}
		if err := r.SubmitPartial(id, pt); err != nil {
			return 0, fmt.Errorf("%s fold: %w", id, err)
		}
		hs.PartialBytes += int64(len(frame))
		hs.Partials++
		span = max(span, last+s.cfg.EdgeLink.SampleTransferTime(int64(len(frame)), s.jitter))
	}
	return span, nil
}

// fold folds ups into one target in virtual arrival order: open starts
// an update's contribution, and an update arriving once target updates
// have folded, or past the deadline, is dropped (drop, if non-nil,
// tells the target). The first arrival always folds, so a deadline
// tighter than every arrival still makes progress. It returns the
// arrival of the last update folded.
func (s *sim) fold(ups []upload, target int, open func(*upload) (*orchestrator.Contributor, error), drop func(*upload), m *RoundMetrics) (time.Duration, error) {
	sort.Slice(ups, func(i, j int) bool { return ups[i].arrival < ups[j].arrival })
	var last time.Duration
	folded := 0
	for i := range ups {
		u := &ups[i]
		late := s.cfg.RoundDeadline > 0 && u.arrival > s.cfg.RoundDeadline
		if folded >= target || (late && folded > 0) {
			m.Dropped++
			if drop != nil {
				drop(u)
			}
			continue
		}
		ct, err := open(u)
		if err != nil {
			return 0, fmt.Errorf("client %s: %w", u.c.id, err)
		}
		if err := s.decode(u, ct, m); err != nil {
			return 0, err
		}
		if err := ct.Commit(); err != nil {
			return 0, fmt.Errorf("commit %s: %w", u.c.id, err)
		}
		folded++
		last = u.arrival
	}
	return last, nil
}

// decode streams u's payload into ct and adds u to m.
func (s *sim) decode(u *upload, ct *orchestrator.Contributor, m *RoundMetrics) error {
	start := time.Now()
	if err := DecodeEntries(s.cfg.Codec, bytes.NewReader(u.payload), ct.Fold); err != nil {
		ct.AbortReason(orchestrator.DropCorrupt)
		return fmt.Errorf("decode %s: %w", u.c.id, err)
	}
	m.DecodeTime += time.Since(start)
	m.TrainTime += u.train
	m.EncodeTime += u.stats.EncodeTime
	m.BytesUplink += u.stats.CompressedBytes
	m.OriginalBytes += u.stats.OriginalBytes
	return nil
}

// record averages m's per-update times over its folded updates,
// evaluates the committed global g and appends m to the result.
func (s *sim) record(m RoundMetrics, folded int, g *model.StateDict) error {
	if n := time.Duration(folded); n > 0 {
		m.TrainTime /= n
		m.EncodeTime /= n
		m.DecodeTime /= n
	}
	start := time.Now()
	if err := s.server.LoadStateDict(g); err != nil {
		return fmt.Errorf("load global: %w", err)
	}
	m.TestAccuracy = s.server.Accuracy(s.testX, s.testY)
	m.ValidationTime = time.Since(start)
	s.res.Rounds = append(s.res.Rounds, m)
	return nil
}

// trainAll trains cs from g in parallel (wall clock), then places the
// updates on the virtual timeline in cs order, which keeps the jitter
// draws a function of the seed.
func (s *sim) trainAll(cs []*client, g *model.StateDict, round int) ([]upload, error) {
	ups := make([]upload, len(cs))
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for i, c := range cs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			ups[i] = s.train(c, g, round)
		}()
	}
	wg.Wait()
	for i := range ups {
		if err := ups[i].err; err != nil {
			return nil, err
		}
		s.arrive(&ups[i])
	}
	return ups, nil
}

// train runs c's local epochs from g and encodes the update.
func (s *sim) train(c *client, g *model.StateDict, round int) upload {
	u := upload{c: c, samples: c.data.N}
	if err := c.net.LoadStateDict(g); err != nil {
		u.err = fmt.Errorf("client %s: %w", c.id, err)
		return u
	}
	start := time.Now()
	for ep := 0; ep < s.cfg.LocalEpochs; ep++ {
		c.data.Shuffle(s.cfg.Seed + int64(round*1000+ep))
		for lo := 0; lo+s.cfg.BatchSize <= c.data.N; lo += s.cfg.BatchSize {
			x, y := c.data.Batch(lo, lo+s.cfg.BatchSize)
			c.net.TrainBatch(x, y, s.cfg.LR, s.cfg.Momentum)
		}
	}
	u.train = time.Since(start)
	var buf bytes.Buffer
	var err error
	if u.stats, err = s.cfg.Codec.EncodeTo(&buf, c.net.StateDict()); err != nil {
		u.err = fmt.Errorf("client %s: %w", c.id, err)
	}
	u.payload = buf.Bytes()
	return u
}

// arrive places u on the virtual timeline: its client's modelled train
// time from round start, plus one sampled transfer on the client's link.
func (s *sim) arrive(u *upload) {
	p := u.c.profile
	train := time.Duration(float64(u.samples*s.cfg.LocalEpochs) * float64(sampleComputeTime) * p.ComputeFactor)
	u.arrival = train + p.Link.SampleTransferTime(u.stats.CompressedBytes, s.jitter)
}

// ScalingPoint is one (workers, time) sample of the Fig. 9 experiments.
type ScalingPoint struct {
	Workers            int
	EpochTimePerClient time.Duration // simulated wall time per client epoch
}

// SimulateWeakScaling models the paper's weak-scaling experiment
// (Fig. 9a): one client per core, shared 10 Mbps server ingest. The
// per-client epoch time is compute + its share of the serialized
// communication. computeTime and updateBytes characterize one client.
func SimulateWeakScaling(workers []int, computeTime time.Duration, updateBytes int64, link netsim.Link) []ScalingPoint {
	out := make([]ScalingPoint, len(workers))
	for i, w := range workers {
		comm := time.Duration(w) * link.TransferTime(updateBytes)
		out[i] = ScalingPoint{Workers: w, EpochTimePerClient: computeTime + comm}
	}
	return out
}

// SimulateStrongScaling models Fig. 9b: a fixed population of clients
// multiplexed over an increasing number of cores. Compute parallelizes;
// the serial ingest link does not.
func SimulateStrongScaling(workers []int, clients int, computeTime time.Duration, updateBytes int64, link netsim.Link) []ScalingPoint {
	comm := time.Duration(clients) * link.TransferTime(updateBytes)
	out := make([]ScalingPoint, len(workers))
	for i, w := range workers {
		waves := (clients + w - 1) / w
		out[i] = ScalingPoint{
			Workers:            w,
			EpochTimePerClient: time.Duration(waves)*computeTime + comm,
		}
	}
	return out
}
