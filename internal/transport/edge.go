package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"time"

	"fedsz/internal/adapt"
	"fedsz/internal/core"
	"fedsz/internal/fl"
	"fedsz/internal/hier"
	"fedsz/internal/model"
	"fedsz/internal/netsim"
	"fedsz/internal/obs"
	"fedsz/internal/orchestrator"
)

// EdgeConfig parameterizes a regional edge aggregator.
type EdgeConfig struct {
	// Upstream dials the coordinator (or a parent edge — tiers nest).
	// The edge joins it with MsgJoinEdge and participates in its rounds
	// like a client whose uplink is one partial sum per round.
	Upstream func() (net.Conn, error)
	// Codec decodes region client uplinks (nil = fl.PlainCodec). It
	// must match the clients' codec, exactly as on a flat server.
	Codec fl.Codec
	// MinClients gates the edge's first regional round (default 1).
	MinClients int
	// RoundDeadline cuts regional stragglers: a region member whose
	// update has not fully arrived this long after the regional
	// broadcast is dropped. Set it below the coordinator's deadline so
	// the partial ships before the edge itself is cut. 0 waits.
	RoundDeadline time.Duration
	// BandwidthBps rate-limits every connection, upstream included
	// (0 = unlimited).
	BandwidthBps float64
	// Shards is the regional aggregator shard count (0 = auto).
	Shards int
	// Checksum stamps outgoing partial frames with CRC32C so the
	// upstream folds only verified regional sums.
	Checksum bool
	// Lossless names an optional lossless codec for packing the
	// partial frame's float64 sums ("" = raw).
	Lossless string
	// NoSpanTrailer suppresses the span-summary trailer on upstream
	// partial frames, making this edge behave like a pre-tracing build:
	// its region still folds and forwards normally, but its subtree is
	// absent from the upstream round tree. Mixed-version tests use it;
	// it is also the escape hatch if a trailer ever bothers an old
	// upstream.
	NoSpanTrailer bool
	// OnPartial observes each regional round's outcome: how many
	// client-level updates the region folded and the partial frame's
	// wire size.
	OnPartial func(round, updates, wireBytes int)
	// Logf, if non-nil, receives join/leave/drop diagnostics.
	Logf func(format string, args ...interface{})
}

// Edge is a regional fold-and-forward aggregator: it accepts region
// clients (and nested edges) on the same protocol the coordinator
// speaks, folds their updates through a streaming sharded aggregator,
// and forwards one re-compressed partial sum upstream per round. The
// coordinator folds partial sums and direct clients interchangeably,
// so regions cut its fan-in from clients to edges without changing
// the committed global model: the partial carries the unnormalized
// weighted sum, which composes exactly under FedAvg.
type Edge struct {
	cfg EdgeConfig

	stop     chan struct{}
	stopOnce sync.Once

	mu         sync.Mutex
	conns      map[string]*connStream
	pending    map[*connStream]struct{}
	edges      map[string]bool // nested edges among the region members
	nextID     int
	nextEdgeID int
	joined     chan struct{}
	closed     bool
}

// NewEdge validates cfg and returns an edge aggregator.
func NewEdge(cfg EdgeConfig) (*Edge, error) {
	if cfg.Upstream == nil {
		return nil, errors.New("transport: edge needs an upstream dialer")
	}
	if cfg.Codec == nil {
		cfg.Codec = fl.PlainCodec{}
	}
	if cfg.MinClients <= 0 {
		cfg.MinClients = 1
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...interface{}) {}
	}
	return &Edge{
		cfg:     cfg,
		stop:    make(chan struct{}),
		conns:   make(map[string]*connStream),
		pending: make(map[*connStream]struct{}),
		edges:   make(map[string]bool),
		joined:  make(chan struct{}, 1),
	}, nil
}

// Shutdown stops Serve: the upstream connection closes and the region
// gets the shutdown courtesy. Safe from any goroutine, idempotent.
func (e *Edge) Shutdown() {
	e.stopOnce.Do(func() { close(e.stop) })
}

// stopping reports whether Shutdown was requested.
func (e *Edge) stopping() bool {
	select {
	case <-e.stop:
		return true
	default:
		return false
	}
}

// Serve joins the upstream, accepts region members on ln, and relays
// rounds until the upstream shuts down: each global-model broadcast
// from upstream fans out to the region, the region's updates fold into
// a fresh regional aggregator, and one partial sum goes back up. It
// returns nil on a clean upstream shutdown (the region is shut down in
// turn) and the first fatal error otherwise.
func (e *Edge) Serve(ln net.Listener) error {
	conn, err := e.cfg.Upstream()
	if err != nil {
		return fmt.Errorf("transport: edge dial upstream: %w", err)
	}
	up := newConnStream(netsim.Limit(conn, e.cfg.BandwidthBps))
	done := make(chan struct{})
	defer close(done)
	go func() {
		// Shutdown unblocks the upstream read by closing its socket.
		select {
		case <-e.stop:
			_ = conn.Close()
		case <-done:
		}
	}()
	defer conn.Close()
	if err := up.writeMsg(MsgJoinEdge, nil); err != nil {
		return err
	}

	acceptDone := make(chan error, 1)
	go e.acceptLoop(ln, acceptDone)
	defer e.closeRegion()

	var prior []byte // population plan prior to relay region-wide
	var bound float64
	var traceID string // round trace context to tag spans and relay
	round := 0
	for {
		t, err := up.readMsgType()
		if err != nil {
			if e.stopping() {
				return nil
			}
			return err
		}
		switch t {
		case MsgShutdown:
			e.cfg.Logf("edge: upstream shutdown after %d rounds", round)
			return nil
		case MsgRoundTrace:
			if traceID, _, err = readRoundTrace(up.r); err != nil {
				return err
			}
		case MsgPlanPrior:
			if prior, err = readPrior(up.r); err != nil {
				return err
			}
		case MsgRoundBound:
			var raw [8]byte
			if _, err := io.ReadFull(up.r, raw[:]); err != nil {
				return fmt.Errorf("%w: round bound: %v", ErrProtocol, err)
			}
			bound = math.Float64frombits(binary.BigEndian.Uint64(raw[:]))
			if bound <= 0 || math.IsNaN(bound) || math.IsInf(bound, 0) {
				return fmt.Errorf("%w: round bound %v", ErrProtocol, bound)
			}
		case MsgGlobalModel:
			global, err := core.UnmarshalStateDictFrom(up.r)
			if err != nil {
				return err
			}
			if err := e.runRegionalRound(up, round, global, bound, prior, traceID); err != nil {
				return err
			}
			round++
			bound, prior, traceID = 0, nil, ""
		default:
			return fmt.Errorf("%w: edge: unexpected upstream message %v", ErrProtocol, t)
		}
	}
}

// acceptLoop registers region members until the listener closes. Both
// direct clients (MsgJoin) and nested edges (MsgJoinEdge) are
// accepted, so tiers stack arbitrarily deep.
func (e *Edge) acceptLoop(ln net.Listener, acceptDone chan<- error) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			acceptDone <- err
			return
		}
		cs := newConnStream(netsim.Limit(conn, e.cfg.BandwidthBps))
		e.mu.Lock()
		if e.closed {
			e.mu.Unlock()
			_ = conn.Close()
			continue
		}
		e.pending[cs] = struct{}{}
		e.mu.Unlock()
		go func() {
			_ = cs.conn.SetReadDeadline(time.Now().Add(joinTimeout))
			t, err := cs.readMsgType()
			e.mu.Lock()
			delete(e.pending, cs)
			if err != nil || (t != MsgJoin && t != MsgJoinEdge) || e.closed {
				e.mu.Unlock()
				e.cfg.Logf("edge: rejecting connection: expected join, got %v (err %v)", t, err)
				_ = conn.Close()
				return
			}
			var id string
			if t == MsgJoinEdge {
				e.nextEdgeID++
				id = fmt.Sprintf("edge-%04d", e.nextEdgeID)
				e.edges[id] = true
			} else {
				e.nextID++
				id = fmt.Sprintf("client-%04d", e.nextID)
			}
			e.conns[id] = cs
			e.mu.Unlock()
			_ = cs.conn.SetReadDeadline(time.Time{})
			e.cfg.Logf("edge: %s joined region", id)
			select {
			case e.joined <- struct{}{}:
			default:
			}
		}()
	}
}

// closeRegion shuts the region down on Serve return: every member
// gets a best-effort MsgShutdown and its connection closed.
func (e *Edge) closeRegion() {
	e.mu.Lock()
	e.closed = true
	conns := make([]*connStream, 0, len(e.conns))
	for _, cs := range e.conns {
		conns = append(conns, cs)
	}
	pending := make([]*connStream, 0, len(e.pending))
	for cs := range e.pending {
		pending = append(pending, cs)
	}
	e.mu.Unlock()
	for _, cs := range conns {
		_ = cs.writeMsg(MsgShutdown, nil)
		_ = cs.conn.Close()
	}
	for _, cs := range pending {
		_ = cs.conn.Close()
	}
}

// dropMember removes a region member after a connection failure.
func (e *Edge) dropMember(id string, cause error) {
	e.mu.Lock()
	cs, ok := e.conns[id]
	delete(e.conns, id)
	delete(e.edges, id)
	e.mu.Unlock()
	if ok {
		_ = cs.conn.Close()
		e.cfg.Logf("edge: %s dropped: %v", id, cause)
	}
}

// waitForRegion blocks until the region has need members, the wait
// budget (when positive) expires, Shutdown fires, or the listener
// dies. It only gates the first round; after that the edge runs with
// whoever is connected and ships an empty partial when nobody is.
func (e *Edge) waitForRegion(need int, budget time.Duration, acceptDone <-chan error) {
	var expire <-chan time.Time
	if budget > 0 {
		t := time.NewTimer(budget)
		defer t.Stop()
		expire = t.C
	}
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for {
		e.mu.Lock()
		n := len(e.conns)
		e.mu.Unlock()
		if n >= need || e.stopping() {
			return
		}
		select {
		case <-e.joined:
		case <-tick.C:
		case <-expire:
			return
		case <-e.stop:
			return
		case <-acceptDone:
			return
		}
	}
}

// runRegionalRound fans the round out to the region, folds whatever
// arrives before the regional deadline, and ships the folded partial
// upstream. Per-member failures drop that member and never abort the
// round; an empty region ships an Updates==0 partial so the upstream
// can withdraw the region for the round without killing the edge.
func (e *Edge) runRegionalRound(up *connStream, round int, global *model.StateDict, bound float64, prior []byte, traceID string) error {
	if round == 0 {
		e.waitForRegion(e.cfg.MinClients, e.cfg.RoundDeadline, nil)
	}
	spanStart := time.Now()
	span := newRoundSpanState()
	if ra, ok := e.cfg.Codec.(fl.ReferenceAware); ok {
		ra.SetReference(global)
	}
	agg := orchestrator.NewAggregator(global, e.cfg.Shards)

	var pmu sync.Mutex
	var priors [][]byte
	collectPrior := func(b []byte) {
		if len(b) > 0 {
			pmu.Lock()
			priors = append(priors, b)
			pmu.Unlock()
		}
	}

	e.mu.Lock()
	members := make(map[string]*connStream, len(e.conns))
	for id, cs := range e.conns {
		members[id] = cs
	}
	e.mu.Unlock()
	obsEdgeMembers.Set(int64(len(members)))
	for id, cs := range members {
		span.track(id, cs)
	}

	// Regional broadcast: relay the population prior and round bound,
	// then the global model, to every member concurrently.
	var bmu sync.Mutex
	var live []string
	var bwg sync.WaitGroup
	for id, cs := range members {
		bwg.Add(1)
		go func(id string, cs *connStream) {
			defer bwg.Done()
			if d := e.cfg.RoundDeadline; d > 0 {
				_ = cs.conn.SetWriteDeadline(time.Now().Add(d))
			}
			var err error
			if traceID != "" {
				// Relay the round's trace context region-wide so nested
				// edges tag their spans too; leaf clients drain it.
				err = cs.writeMsg(MsgRoundTrace, func(w io.Writer) error {
					return writeRoundTrace(w, traceID, round)
				})
			}
			if err == nil && len(prior) > 0 {
				err = cs.writeMsg(MsgPlanPrior, func(w io.Writer) error {
					return writePrior(w, prior)
				})
			}
			if err == nil && bound > 0 {
				err = cs.writeMsg(MsgRoundBound, func(w io.Writer) error {
					var raw [8]byte
					binary.BigEndian.PutUint64(raw[:], math.Float64bits(bound))
					_, werr := w.Write(raw[:])
					return werr
				})
			}
			if err == nil {
				err = cs.writeMsg(MsgGlobalModel, func(w io.Writer) error {
					return core.MarshalStateDictTo(w, global)
				})
			}
			if err != nil {
				span.outcome(id, dropReasonFor(err).String())
				e.dropMember(id, err)
				return
			}
			_ = cs.conn.SetWriteDeadline(time.Time{})
			bmu.Lock()
			live = append(live, id)
			bmu.Unlock()
		}(id, cs)
	}
	bwg.Wait()
	broadcastNs := time.Since(spanStart).Nanoseconds()

	// Regional collect: the deadline clock starts after the broadcast,
	// mirroring the coordinator. A failed member aborts its own
	// contribution (withdrawing partial folds) and is dropped.
	gatherStart := span.startGather()
	deadline := time.Time{}
	if d := e.cfg.RoundDeadline; d > 0 {
		deadline = time.Now().Add(d)
	}
	var wg sync.WaitGroup
	for _, id := range live {
		cs := members[id]
		wg.Add(1)
		go func(id string, cs *connStream) {
			defer wg.Done()
			if err := e.collectMember(agg, id, cs, deadline, collectPrior, span); err != nil {
				span.outcome(id, dropReasonFor(err).String())
				e.dropMember(id, err)
				return
			}
			span.settle(id)
		}(id, cs)
	}
	wg.Wait()
	gatherNs := time.Since(gatherStart).Nanoseconds()

	// Fold-and-forward: take a view of the regional sum (every collector
	// has settled, nothing folds again), attach the region's merged plan
	// prior, and ship one partial frame upstream. The sums travel as raw
	// float64 bits (optionally lossless-packed) — the partial is never
	// lossy re-encoded, so a 2-tier federation commits byte-identical
	// FedAvg results to a flat one.
	commitStart := time.Now()
	p := agg.Partial()
	p.Prior = adapt.MergePriorBlobs(priors...)

	// The member conns are quiescent now, so the per-client records are
	// final before the upload — the summary that rides the partial
	// carries the same data the local span will, with pre-upload phase
	// totals (the parent tier attributes the upload itself as forward
	// time on the wire).
	clients, bytesUp, bytesDown := span.finish()
	committed := 0
	for _, c := range clients {
		if c.Outcome == "committed" {
			committed++
		}
	}
	sp := obs.RoundSpan{
		Tier:         "edge",
		Round:        round,
		TraceID:      traceID,
		Start:        spanStart,
		TotalNs:      time.Since(spanStart).Nanoseconds(),
		BroadcastNs:  broadcastNs,
		GatherNs:     gatherNs,
		DecodeFoldNs: span.decodeFoldNs.Load(),
		CommitNs:     time.Since(commitStart).Nanoseconds(),
		BytesUp:      bytesUp,
		BytesDown:    bytesDown,
		Sampled:      len(members),
		Committed:    committed,
		Dropped:      len(members) - committed,
		Bound:        bound,
		Clients:      clients,
	}
	if traceID != "" && !e.cfg.NoSpanTrailer {
		// One trailer per region per round, encoded once — the only
		// tracing bytes this edge adds to the upstream hop.
		p.Span = obs.EncodeSpanSummary(&obs.SpanSummary{Span: sp, Children: span.childSummaries()})
	}
	// The frame streams straight onto the upstream connection: the first
	// entries are on the wire — and being decoded and summed by the
	// upstream collector — while later ones are still converting.
	tx0 := up.bytesWritten()
	err := up.writeMsg(MsgPartialSum, func(w io.Writer) error {
		return hier.EncodePartialTo(w, p, hier.WireOptions{
			Checksum: e.cfg.Checksum,
			Lossless: e.cfg.Lossless,
		})
	})
	if err != nil {
		return fmt.Errorf("transport: edge forward partial: %w", err)
	}
	// writeMsg flushed, so the connection's only writer put exactly the
	// type byte and the frame on the socket.
	frameLen := int(up.bytesWritten() - tx0 - 1)
	obsEdgeRounds.Inc()
	if p.Updates == 0 {
		obsEdgeEmptyRounds.Inc()
	}
	// The local trace keeps the post-upload totals: this tier's view of
	// the round includes shipping its partial.
	sp.TotalNs = time.Since(spanStart).Nanoseconds()
	sp.CommitNs = time.Since(commitStart).Nanoseconds()
	obs.DefaultTrace.Add(sp)
	if e.cfg.OnPartial != nil {
		e.cfg.OnPartial(round, p.Updates, frameLen)
	}
	e.cfg.Logf("edge: round %d folded %d updates (weight %.0f) into %d-byte partial",
		round, p.Updates, p.TotalWeight, frameLen)
	return nil
}

// collectMember reads one region member's reply into the regional
// aggregator: clients stream a MsgUpdate through the codec, nested
// edges hand over their own MsgPartialSum, which folds raw.
func (e *Edge) collectMember(agg *orchestrator.Aggregator, id string, cs *connStream, deadline time.Time, collectPrior func([]byte), span *roundSpanState) error {
	if err := cs.conn.SetReadDeadline(deadline); err != nil {
		return fmt.Errorf("transport: set deadline: %w", err)
	}
	e.mu.Lock()
	isEdge := e.edges[id]
	e.mu.Unlock()
	t, err := cs.readMsgType()
	if err != nil {
		return err
	}
	if isEdge {
		if t != MsgPartialSum {
			return fmt.Errorf("%w: expected partial sum, got %v", ErrProtocol, t)
		}
		decodeStart := time.Now()
		p, err := hier.DecodePartialFrom(cs.r)
		if err != nil {
			span.decodeFoldNs.Add(time.Since(decodeStart).Nanoseconds())
			return err
		}
		// A nested edge's span summary folds into this tier's own
		// trailer, so arbitrarily deep regions reach the coordinator.
		if len(p.Span) > 0 {
			if sum, err := obs.DecodeSpanSummary(p.Span); err == nil {
				span.attachChild(id, sum)
			}
		}
		if p.Updates == 0 {
			span.decodeFoldNs.Add(time.Since(decodeStart).Nanoseconds())
			span.outcome(id, "empty_region")
			return cs.conn.SetReadDeadline(time.Time{})
		}
		ct, err := agg.PartialContributor(p.TotalWeight, p.Updates)
		if err != nil {
			span.decodeFoldNs.Add(time.Since(decodeStart).Nanoseconds())
			return err
		}
		for _, en := range p.Entries {
			if err := ct.FoldPartial(en); err != nil {
				span.decodeFoldNs.Add(time.Since(decodeStart).Nanoseconds())
				ct.AbortReason(dropReasonFor(err))
				return err
			}
		}
		span.decodeFoldNs.Add(time.Since(decodeStart).Nanoseconds())
		if err := ct.Commit(); err != nil {
			return err
		}
		collectPrior(p.Prior)
		return cs.conn.SetReadDeadline(time.Time{})
	}
	if t != MsgUpdate {
		return fmt.Errorf("%w: expected update, got %v", ErrProtocol, t)
	}
	samples, err := binary.ReadUvarint(cs.r)
	if err != nil {
		return fmt.Errorf("%w: update sample count", ErrProtocol)
	}
	ct, err := agg.Contributor(float64(samples))
	if err != nil {
		return err
	}
	decodeStart := time.Now()
	err = fl.DecodeEntries(e.cfg.Codec, cs.r, ct.Fold)
	span.decodeFoldNs.Add(time.Since(decodeStart).Nanoseconds())
	if err != nil {
		ct.AbortReason(dropReasonFor(err))
		return err
	}
	pb, err := readPrior(cs.r)
	if err != nil {
		// The update is fully folded by now; losing the trailer must
		// withdraw it, or the regional partial ships the client's sums
		// without its weight.
		ct.AbortReason(dropReasonFor(err))
		return err
	}
	if err := ct.Commit(); err != nil {
		return err
	}
	collectPrior(pb)
	return cs.conn.SetReadDeadline(time.Time{})
}
