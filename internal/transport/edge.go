package transport

import (
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"fedsz/internal/fl"
	"fedsz/internal/hier"
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
	t   *tier
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
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...interface{}) {}
	}
	cfg.Logf = func(format string, args ...interface{}) { logf("edge: "+format, args...) }
	return &Edge{
		cfg: cfg,
		t:   newTier(cfg.Codec, cfg.BandwidthBps, cfg.RoundDeadline, cfg.Logf),
	}, nil
}

// Shutdown stops Serve: the upstream connection closes and the region
// gets the shutdown courtesy. Safe from any goroutine, idempotent.
func (e *Edge) Shutdown() { e.t.shutdown() }

// Serve joins the upstream, accepts region members on ln, and relays
// rounds until the upstream shuts down: each round's inputs from
// upstream fan out to the region, the region's updates fold into the
// edge's regional aggregator, and one partial sum goes back up. It
// returns nil on a clean upstream shutdown (the region is shut down in
// turn) and the first fatal error otherwise.
func (e *Edge) Serve(ln net.Listener) error {
	conn, err := e.cfg.Upstream()
	if err != nil {
		return fmt.Errorf("transport: edge dial upstream: %w", err)
	}
	up := newConnStream(netsim.Limit(conn, e.cfg.BandwidthBps))
	served := make(chan struct{})
	defer close(served)
	go func() {
		// Shutdown unblocks the upstream read by closing its socket.
		select {
		case <-e.t.stop:
			_ = conn.Close()
		case <-served:
		}
	}()
	defer conn.Close()
	if err := up.writeMsg(MsgJoinEdge, nil); err != nil {
		return err
	}

	sk := &edgeSink{cfg: &e.cfg, t: e.t, up: up}
	go e.t.acceptLoop(ln, sk)
	defer e.t.close(true)

	// The edge is a client upstream: it reads each round's inputs with
	// the client's reader and answers with one partial sum.
	for roundsRun := 0; ; roundsRun++ {
		// No previous dict to decode into: the round that held it let it go
		// after its broadcast, so the gather does not carry a second model.
		// A frame's bytes are kept in the tier's own frame buffer — the
		// round relays them, so the tier encodes nothing into it.
		down, done, err := readDownlink(up, e.cfg.Codec, nil, &e.t.frame)
		if done {
			e.cfg.Logf("upstream shutdown after %d rounds", roundsRun)
			return nil
		}
		if err != nil {
			if e.t.stopping() {
				return nil
			}
			return err
		}
		// The coordinator's round number rides the trace context, so the
		// region's span, relayed trace and logs name the same round as the
		// tree's root; only a pre-tracing upstream leaves the edge
		// counting for itself.
		if down.traceID == "" {
			down.round = roundsRun
		}
		sk.down = down
		// MinClients gates only the first regional round of this process,
		// for at most RoundDeadline; after that the edge runs with whoever
		// is connected and ships an empty partial when nobody is.
		if roundsRun == 0 {
			if err := e.t.wait(e.cfg.MinClients, e.cfg.RoundDeadline); err != nil {
				e.cfg.Logf("%v", err)
			}
		}
		if err := e.t.runRound(sk); err != nil {
			return err
		}
	}
}

// edgeSink is the edge's end of the round engine: a round's inputs are
// whatever upstream sent, every connected member participates, a drop
// only closes the connection, and finishing forwards the region's
// partial sum upstream. Per-member failures never abort the round; an
// empty region ships an Updates==0 partial so the upstream can withdraw
// the region for the round without killing the edge.
type edgeSink struct {
	cfg  *EdgeConfig
	t    *tier
	up   *connStream
	down downlink                 // the next round's inputs, until open hands them over
	agg  *orchestrator.Aggregator // the regional fold: owned for the edge's lifetime, emptied per round
}

func (k *edgeSink) join(string) error { return nil }

func (k *edgeSink) open() (downlink, []string, error) {
	down := k.down
	k.down = downlink{} // the model is the round's to hold, and only while it broadcasts
	k.agg = k.agg.NextRound(down.global, k.cfg.Shards)
	ids := k.t.memberIDs()
	obsEdgeMembers.Set(int64(len(ids)))
	return down, ids, nil
}

func (k *edgeSink) contributor(_ string, weight float64, updates int) (*orchestrator.Contributor, error) {
	if updates > 0 {
		return k.agg.PartialContributor(weight, updates)
	}
	return k.agg.Contributor(weight)
}

func (k *edgeSink) withdrawn(string, orchestrator.DropReason, bool) {}

// finish is fold-and-forward: take a view of the regional sum (every
// collector has settled, nothing folds again) and ship one partial
// frame upstream, its Prior empty. The sums travel as raw float64 bits
// (optionally lossless-packed) — the partial is never lossy re-encoded,
// so a 2-tier federation commits byte-identical FedAvg results to a
// flat one.
func (k *edgeSink) finish(g *gathered) error {
	p := k.agg.Partial()

	sp := &g.span
	sp.Tier = "edge"
	sp.Sampled = len(sp.Clients)
	for _, c := range sp.Clients {
		if c.Outcome == "committed" {
			sp.Committed++
		}
	}
	sp.Dropped = sp.Sampled - sp.Committed
	if sp.TraceID != "" {
		// One trailer per region per round, encoded once — the only
		// tracing bytes this edge adds to the upstream hop. The member
		// conns are quiescent, so it carries the same records the local
		// span will, with pre-upload phase totals (the parent tier
		// attributes the upload itself as forward time on the wire). A
		// nested edge's summary folds into it, so arbitrarily deep
		// regions reach the coordinator.
		g.stamp()
		p.Span = obs.EncodeSpanSummary(&obs.SpanSummary{Span: *sp, Children: g.children})
	}
	// The frame streams straight onto the upstream connection: the first
	// entries are on the wire — and being decoded and summed by the
	// upstream collector — while later ones are still converting.
	tx0 := k.up.bytesWritten()
	err := k.up.writeMsg(MsgPartialSum, func(w io.Writer) error {
		return hier.EncodePartialTo(w, p, hier.WireOptions{
			Checksum: k.cfg.Checksum,
			Lossless: k.cfg.Lossless,
		})
	})
	if err != nil {
		return fmt.Errorf("transport: edge forward partial: %w", err)
	}
	// writeMsg flushed, so the connection's only writer put exactly the
	// type byte and the frame on the socket.
	frameLen := int(k.up.bytesWritten() - tx0 - 1)
	obsEdgeRounds.Inc()
	if p.Updates == 0 {
		obsEdgeEmptyRounds.Inc()
	}
	// The local trace keeps the post-upload totals: this tier's view of
	// the round includes shipping its partial.
	g.stamp()
	obs.DefaultTrace.Add(*sp)
	if k.cfg.OnPartial != nil {
		k.cfg.OnPartial(sp.Round, p.Updates, frameLen)
	}
	k.cfg.Logf("round %d folded %d updates (weight %.0f) into %d-byte partial",
		sp.Round, p.Updates, p.TotalWeight, frameLen)
	// The sums stay with the edge: the partial view above was fully
	// streamed upstream inside writeMsg, and the next open empties them in
	// place instead of allocating the model in float64 again.
	return nil
}
