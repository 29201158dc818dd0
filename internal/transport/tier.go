package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"fedsz/internal/core"
	"fedsz/internal/fl"
	"fedsz/internal/hier"
	"fedsz/internal/model"
	"fedsz/internal/netsim"
	"fedsz/internal/obs"
	"fedsz/internal/orchestrator"
)

// sink is everything one tier's rounds differ by. The engine below runs
// the round; the sink decides where the round's inputs come from and
// who participates (open), what joining and dropping notify (join,
// withdrawn), and where contributions fold and what finishing means
// (contributor, finish).
type sink interface {
	// join admits a newly registered member. It runs under the registry
	// lock, so a member is never visible to a round before it is
	// admitted; it must not call back into the tier.
	join(id string) error
	// open starts a round: the inputs to broadcast and the member ids to
	// broadcast them to.
	open() (downlink, []string, error)
	// contributor opens a participant's contribution to the round's
	// aggregate: one client's streamed update (updates == 0) or a nested
	// region's partial sum carrying that many client updates.
	contributor(id string, weight float64, updates int) (*orchestrator.Contributor, error)
	// withdrawn reports a participant that will not count this round;
	// gone says its connection was closed and it left the registry too.
	withdrawn(id string, reason orchestrator.DropReason, gone bool)
	// finish closes the round. Every collector has settled by now —
	// the quiescence orchestrator.Round.Commit and Aggregator.Partial
	// require.
	finish(g *gathered) error
}

// gathered is a round after its gather phase, handed to the sink's
// finish: the span so far (phases, bytes, per-participant records —
// the sink adds its tier's identity and counts) and the span summaries
// nested regions shipped.
type gathered struct {
	span        obs.RoundSpan
	commitStart time.Time
	children    []obs.ChildSummary
}

// stamp sets the span's closing times as of now.
func (g *gathered) stamp() {
	now := time.Now()
	g.span.TotalNs = now.Sub(g.span.Start).Nanoseconds()
	g.span.CommitNs = now.Sub(g.commitStart).Nanoseconds()
}

// member is one registered connection.
type member struct {
	cs *connStream
	// edge marks a region aggregator (it joined with MsgJoinEdge): it
	// takes part in rounds like any client, but its uplink is one
	// MsgPartialSum carrying its whole region.
	edge bool
}

// participant is a member taking part in the open round.
type participant struct {
	id string
	member
}

// tier is the round engine both servers own: the member registry and
// its join loop, the member-count wait, the shutdown courtesy, and the
// round itself — broadcast, gather, fold — up to the point where the
// sink finishes it.
type tier struct {
	codec    fl.Codec
	bps      float64       // per-connection rate limit (0 = unlimited)
	deadline time.Duration // straggler cut per round (0 = wait)
	logf     func(format string, args ...interface{})

	// The downlink gate's state, touched only by the goroutine that runs
	// the rounds: the frame this round's participants are sent (storage
	// reused round after round), whether the gate has turned a frame down
	// (the tier then sends raw for its lifetime), and whether its first
	// decision has been logged.
	frame      bytes.Buffer
	downRaw    bool
	downLogged bool

	land landings // what the participants' uplinks decode into

	stop     chan struct{} // closed by shutdown
	stopOnce sync.Once

	mu         sync.Mutex
	members    map[string]member
	pending    map[*connStream]struct{} // accepted, join not yet read
	nextID     int
	nextEdgeID int
	joined     chan struct{} // doorbell: a join, or the accept loop dying
	closed     bool
	acceptErr  error // sticky: the accept loop died with this error
}

func newTier(codec fl.Codec, bps float64, deadline time.Duration, logf func(string, ...interface{})) *tier {
	return &tier{
		codec:    codec,
		bps:      bps,
		deadline: deadline,
		logf:     logf,
		stop:     make(chan struct{}),
		members:  make(map[string]member),
		pending:  make(map[*connStream]struct{}),
		joined:   make(chan struct{}, 1),
	}
}

// shutdown asks the owner's Serve loop to stop. Idempotent.
func (t *tier) shutdown() { t.stopOnce.Do(func() { close(t.stop) }) }

// stopping reports whether shutdown was requested.
func (t *tier) stopping() bool {
	select {
	case <-t.stop:
		return true
	default:
		return false
	}
}

// ring wakes wait; the doorbell holds one pending signal.
func (t *tier) ring() {
	select {
	case t.joined <- struct{}{}:
	default:
	}
}

// joinTimeout bounds how long an accepted connection may sit silent
// before sending its join; without it an idle connect would park a
// goroutine and a socket for the server's lifetime.
const joinTimeout = 30 * time.Second

// acceptLoop registers incoming connections until the listener closes.
// Direct clients (MsgJoin) and edge aggregators (MsgJoinEdge) share the
// listener — the join type byte is the whole protocol difference — so
// tiers stack arbitrarily deep.
func (t *tier) acceptLoop(ln net.Listener, sk sink) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			t.mu.Lock()
			t.acceptErr = err
			t.mu.Unlock()
			t.ring()
			return
		}
		cs := newConnStream(netsim.Limit(conn, t.bps))
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			_ = conn.Close()
			continue
		}
		t.pending[cs] = struct{}{}
		t.mu.Unlock()
		go t.register(cs, sk)
	}
}

// register reads one accepted connection's join and adds it to the
// registry. Pending-removal, the shutdown check and registration share
// one critical section, so close either sees the connection in pending
// or in members — never in neither.
func (t *tier) register(cs *connStream, sk sink) {
	_ = cs.conn.SetReadDeadline(time.Now().Add(joinTimeout))
	typ, err := cs.readMsgType()
	t.mu.Lock()
	delete(t.pending, cs)
	if err != nil || (typ != MsgJoin && typ != MsgJoinEdge) || t.closed {
		t.mu.Unlock()
		t.logf("rejecting connection: expected join, got %v (err %v)", typ, err)
		_ = cs.conn.Close()
		return
	}
	var id string
	if typ == MsgJoinEdge {
		t.nextEdgeID++
		id = fmt.Sprintf("edge-%04d", t.nextEdgeID)
	} else {
		t.nextID++
		id = fmt.Sprintf("client-%04d", t.nextID)
	}
	if err := sk.join(id); err != nil {
		t.mu.Unlock()
		t.logf("rejecting %s: %v", id, err)
		_ = cs.conn.Close()
		return
	}
	t.members[id] = member{cs: cs, edge: typ == MsgJoinEdge}
	t.mu.Unlock()
	_ = cs.conn.SetReadDeadline(time.Time{})
	t.logf("%s joined", id)
	t.ring()
}

// wait blocks until the registry holds need members, the budget (when
// positive) runs out, or shutdown. Once the accept loop has died an
// under-populated-but-nonempty registry proceeds (run with whoever is
// left) and an empty one fails — no new member can ever arrive.
func (t *tier) wait(need int, budget time.Duration) error {
	var expire <-chan time.Time
	if budget > 0 {
		timer := time.NewTimer(budget)
		defer timer.Stop()
		expire = timer.C
	}
	// The doorbell holds one signal, so a burst of joins can drop some;
	// the ticker bounds how long a dropped wakeup can stall the check.
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for {
		t.mu.Lock()
		n, dead := len(t.members), t.acceptErr
		t.mu.Unlock()
		if n >= need || t.stopping() {
			return nil
		}
		if dead != nil {
			if n > 0 {
				return nil
			}
			return fmt.Errorf("transport: listener closed with no clients left: %w", dead)
		}
		select {
		case <-t.joined:
		case <-tick.C:
		case <-expire:
			return nil
		case <-t.stop:
			return nil
		}
	}
}

// close ends the tier on Serve return: every member gets a best-effort
// MsgShutdown (unless the owner is simulating a crash) and its
// connection closed. Never-joined connections get no courtesy —
// closing them unblocks their join readers.
func (t *tier) close(courtesy bool) {
	t.mu.Lock()
	t.closed = true
	members, pending := t.members, t.pending
	t.members, t.pending = map[string]member{}, map[*connStream]struct{}{}
	t.mu.Unlock()
	for _, m := range members {
		if courtesy {
			_ = m.cs.writeMsg(MsgShutdown, nil)
		}
		_ = m.cs.conn.Close()
	}
	for cs := range pending {
		_ = cs.conn.Close()
	}
}

// memberIDs returns the ids of every registered member.
func (t *tier) memberIDs() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	ids := make([]string, 0, len(t.members))
	for id := range t.members {
		ids = append(ids, id)
	}
	return ids
}

// drop removes a member whose connection failed mid-round: registry,
// socket, span outcome and the sink's own accounting. The member must
// reconnect and re-register before participating again.
func (t *tier) drop(sk sink, st *roundSpanState, id string, cause error) {
	reason := dropReasonFor(cause)
	st.outcome(id, reason.String())
	t.mu.Lock()
	m, ok := t.members[id]
	delete(t.members, id)
	t.mu.Unlock()
	if ok {
		_ = m.cs.conn.Close()
	}
	sk.withdrawn(id, reason, true)
	t.logf("%s dropped (%v): %v", id, reason, cause)
}

// dropReasonFor classifies a collection failure: a read-deadline
// timeout is a straggler cut, a frame that failed structural or
// checksum validation is corruption, anything else is a transport
// death. Timeout wins over corruption — a deadline firing mid-frame
// truncates the stream, which the decoder also reports as ErrCorrupt,
// but the timeout in the chain names the true cause.
func dropReasonFor(err error) orchestrator.DropReason {
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return orchestrator.DropDeadline
	}
	if errors.Is(err, core.ErrCorrupt) {
		return orchestrator.DropCorrupt
	}
	return orchestrator.DropDisconnect
}

// runRound executes one round: broadcast the sink's inputs to its
// participants, fold their streamed replies concurrently, cut
// stragglers at the deadline, and hand what arrived to the sink's
// finish. Per-connection failures drop that member and never abort the
// round.
func (t *tier) runRound(sk sink) error {
	start := time.Now()
	down, participants, err := sk.open()
	if err != nil {
		return err
	}
	st := newRoundSpanState()
	// Everything the span takes from the inputs is copied out here, so the
	// model is held for the broadcast only: at an edge nothing else keeps
	// it live through the gather.
	span := obs.RoundSpan{Round: down.round, TraceID: down.traceID, Start: start}
	span.Down = t.frameDownlink(&down)

	// Broadcast to every participant concurrently — each connection's
	// rate limit is independent, so round-start time stays one transfer,
	// not participants×transfer. A failed or (when a deadline is
	// configured) stalled write means a dead member: drop it and keep
	// going, so one peer that stopped reading cannot hang the round.
	var live []participant
	var bmu sync.Mutex
	var bwg sync.WaitGroup
	for _, id := range participants {
		t.mu.Lock()
		m, ok := t.members[id]
		t.mu.Unlock()
		st.track(id, m.cs)
		if !ok {
			st.outcome(id, orchestrator.DropDisconnect.String())
			sk.withdrawn(id, orchestrator.DropDisconnect, false)
			continue
		}
		bwg.Add(1)
		go func(p participant) {
			defer bwg.Done()
			if t.deadline > 0 {
				_ = p.cs.conn.SetWriteDeadline(time.Now().Add(t.deadline))
			}
			if err := down.writeTo(p.cs); err != nil {
				t.drop(sk, st, p.id, err)
				return
			}
			_ = p.cs.conn.SetWriteDeadline(time.Time{})
			bmu.Lock()
			live = append(live, p)
			bmu.Unlock()
		}(participant{id, m})
	}
	bwg.Wait()
	span.BroadcastNs = time.Since(start).Nanoseconds()

	// Collect replies concurrently. The read deadline is the straggler
	// cut: when it fires, the blocked read fails, the contribution
	// aborts (withdrawing any partial folds), and the member is dropped
	// — so wg.Wait() below always returns and the round finishes with
	// the on-time subset. The deadline clock starts after the broadcast:
	// the (possibly rate-limited) downlink must not eat into the
	// members' response window.
	var deadline time.Time
	if gatherStart := st.startGather(); t.deadline > 0 {
		deadline = gatherStart.Add(t.deadline)
	}
	var wg sync.WaitGroup
	for _, p := range live {
		wg.Add(1)
		go func(p participant) {
			defer wg.Done()
			if err := t.collect(sk, st, p, deadline); err != nil {
				t.drop(sk, st, p.id, err)
				return
			}
			st.settle(p.id)
		}(p)
	}
	wg.Wait()
	// Every Contributor has committed or aborted: no fold references a
	// landing any more, and nothing after the gather reads one.
	t.land.reclaim()
	return sk.finish(st.close(span))
}

// landings are the buffers the tier's collectors decode uplinks into,
// owned by the tier and reused round after round: the dict a plain
// update lands in (a FedSZ update lands in the decoder's own scratch and
// borrows nothing it keeps) and the partial a region's float64 sums land
// in. One rule covers both kinds, at the coordinator and at an edge alike.
// A collector borrows a landing when its decode starts; the Contributor
// it folds into references the landing's storage, for an undo, until the
// contribution settles. runRound hands every borrowed landing back after
// its gather's wg.Wait(), when every Contributor has committed or
// aborted; the landings that round used are the next round's spares, and
// spares it did not use are dropped. What stays resident between rounds
// is therefore bounded by the last round's participant count, the peak
// its gather reached anyway. A landing is scratch until it is folded: a
// decode that failed part-way, or a frame its checksum rejected, leaves
// it partly overwritten, and it goes back to the spares all the same.
type landings struct {
	mu    sync.Mutex
	spare []*landing
	lent  []*landing
}

// landing is one participant's uplink storage, of one kind.
type landing struct {
	dict    *model.StateDict      // a plain update's entries
	partial *orchestrator.Partial // a region's sums
}

// poisonLandings overwrites a landing's floats with NaN when it is handed
// back, so a consumer that still reads it after the gather reads NaN, not
// the next round's uplink. On under the race detector; tests switch it on.
var poisonLandings = raceEnabled

// borrow lends a spare landing of the kind asked for — a region's
// partial, or else a plain update's dict — or a new, empty one.
func (l *landings) borrow(partial bool) *landing {
	l.mu.Lock()
	defer l.mu.Unlock()
	ld := &landing{}
	for i, s := range l.spare {
		if (s.partial != nil) == partial {
			ld = s
			last := len(l.spare) - 1
			l.spare[i], l.spare[last] = l.spare[last], nil
			l.spare = l.spare[:last]
			break
		}
	}
	l.lent = append(l.lent, ld)
	return ld
}

// reclaim takes back every landing lent this round as the next round's
// spares, and drops the spares this round left unused.
func (l *landings) reclaim() {
	l.mu.Lock()
	defer l.mu.Unlock()
	clear(l.spare)
	l.spare = l.spare[:0]
	for _, ld := range l.lent {
		if ld.dict == nil && ld.partial == nil {
			continue // nothing was decoded into it
		}
		if poisonLandings {
			ld.poison()
		}
		l.spare = append(l.spare, ld)
	}
	clear(l.lent)
	l.lent = l.lent[:0]
}

func (ld *landing) poison() {
	nan := math.NaN()
	if ld.partial != nil {
		for _, e := range ld.partial.Entries {
			for i := range e.Sums {
				e.Sums[i] = nan
			}
		}
	}
	if ld.dict != nil {
		for i := 0; i < ld.dict.Len(); i++ {
			if e := ld.dict.At(i); e.DType == model.Float32 {
				data := e.Tensor.Data()
				for j := range data {
					data[j] = float32(nan)
				}
			}
		}
	}
}

// downlinkCodecRate is R, the rate the downlink gate charges the codec
// at: tC + tD of Eqn. 1 are taken as S/R, in bytes per second. 50 MB/s
// is half the combined rate of sz2 at 150 MB/s compress and 330 MB/s
// decompress (the benchmark's layers rows on its two-core reference
// host), which puts the crossover near 350 Mbps for a 7-10x frame —
// under the paper's 500 Mbps. A constant, not a stopwatch: the bytes a
// tier sends must not depend on how busy the host was. The round span's
// Down carries the measured tC next to S and S', which is what to
// re-derive R from. sz2's block-kernel encoder now compresses the
// flat_lan update at about 134 MB/s in BenchmarkCompressMobileNet (111
// MB/s before it, same host); R stays 50 MB/s, because moving it moves
// the gate and with it the bytes a tier sends.
const downlinkCodecRate = 50e6

// frameDownlink decides how this round's model travels to the tier's
// participants and, when a frame wins, leaves it in down.frame. It is
// the paper's Eqn. 1 turned on the downlink: send the codec's frame iff
//
//	S/R + 8·S'/B < 8·S/B
//
// for the tier's declared per-connection rate B (bps), S and S' as the
// codec reports them and R = downlinkCodecRate. The global is encoded
// once per round into storage the tier reuses and the same bytes go to
// every participant. Nothing is encoded when no rate is declared, when
// an upstream tier's frame is being relayed, or once a frame has failed
// the test: the tier then sends raw for its lifetime, so a codec whose
// frames cannot carry a model (UpdateStats.WholeImage unset) or do not
// pay costs one wasted encode.
//
// The tier that encodes keeps the exact model: OnRound, checkpoints and
// Coordinator.Global never see the decoded image, and the aggregate is
// of what the leaves sent. Only a reference-aware codec would need the
// image on this side, and its frames never pass the WholeImage test.
func (t *tier) frameDownlink(down *downlink) *obs.SpanDownlink {
	// The decision is logged when it is first made and when it changes.
	first := !t.downLogged
	t.downLogged = true
	if down.frame != nil {
		sd := &obs.SpanDownlink{Mode: "relay", RawBytes: down.global.SizeBytes(), WireBytes: int64(len(down.frame))}
		if first {
			t.logf("downlink: relaying the upstream tier's frame (%d bytes for a %d-byte model)", sd.WireBytes, sd.RawBytes)
		}
		return sd
	}
	if t.bps <= 0 || t.downRaw {
		if first {
			t.logf("downlink: raw model (no link rate declared, Eqn. 1 not evaluated)")
		}
		return nil
	}
	t.frame.Reset()
	start := time.Now()
	st, err := t.codec.EncodeTo(&t.frame, down.global)
	tC := time.Since(start)
	if err != nil {
		t.downRaw = true
		t.logf("downlink: raw model from here on: encoding the global failed: %v", err)
		return nil
	}
	s, sPrime := float64(st.OriginalBytes), float64(st.CompressedBytes)
	sd := &obs.SpanDownlink{
		Mode:      "frame",
		RawBytes:  st.OriginalBytes,
		WireBytes: st.CompressedBytes,
		EncodeNs:  tC.Nanoseconds(),
		MarginNs:  int64(8*(s-sPrime)/t.bps*1e9) - tC.Nanoseconds(),
	}
	if st.WholeImage && s/downlinkCodecRate+8*sPrime/t.bps < 8*s/t.bps {
		down.frame = t.frame.Bytes()
		if first {
			t.logf("downlink: %s frame at %.0f Mbps: S=%d S'=%d (%.1fx) tC=%v, Eqn. 1 holds with R=%.0f MB/s",
				t.codec.Name(), t.bps/1e6, st.OriginalBytes, st.CompressedBytes, s/sPrime, tC, downlinkCodecRate/1e6)
		}
		return sd
	}
	t.downRaw = true
	t.frame = bytes.Buffer{} // never needed again
	sd.Mode = "raw"
	t.logf("downlink: raw model from here on at %.0f Mbps: a %s frame (S=%d S'=%d, whole image %v) fails Eqn. 1 with R=%.0f MB/s",
		t.bps/1e6, t.codec.Name(), st.OriginalBytes, st.CompressedBytes, st.WholeImage, downlinkCodecRate/1e6)
	return sd
}

// collect reads one participant's round reply and folds it into the
// sink's aggregate. Direct clients stream a MsgUpdate (decoded and
// folded tensor by tensor); edge aggregators send one MsgPartialSum,
// which folds raw.
func (t *tier) collect(sk sink, st *roundSpanState, p participant, deadline time.Time) error {
	cs := p.cs
	if err := cs.conn.SetReadDeadline(deadline); err != nil {
		return fmt.Errorf("transport: set deadline: %w", err)
	}
	typ, err := cs.readMsgType()
	if err != nil {
		return err
	}
	switch {
	case typ == MsgUpdate && !p.edge:
		err = t.collectUpdate(sk, st, p.id, cs)
	case typ == MsgPartialSum && p.edge:
		err = t.collectPartial(sk, st, p.id, cs)
	default:
		err = fmt.Errorf("%w: unexpected %v from %s", ErrProtocol, typ, p.id)
	}
	if err != nil {
		return err
	}
	// The member survived the round; clear its deadline.
	return cs.conn.SetReadDeadline(time.Time{})
}

// collectUpdate folds one client's streamed update and reads past its
// prior trailer.
func (t *tier) collectUpdate(sk sink, st *roundSpanState, id string, cs *connStream) error {
	samples, err := binary.ReadUvarint(cs.r)
	if err != nil {
		return fmt.Errorf("%w: update sample count", ErrProtocol)
	}
	ct, err := sk.contributor(id, float64(samples), 0)
	if err != nil {
		return err
	}
	land := t.land.borrow(false)
	err = st.timeDecodeFold(func() error {
		held, err := fl.DecodeEntriesInto(t.codec, cs.r, land.dict, ct.Fold)
		if held != nil { // nil on error: the landing keeps its old, partly overwritten dict
			land.dict = held
		}
		return err
	})
	if err != nil {
		// Withdraw any folds the aggregate already took (verified
		// sections of a frame whose later section was damaged), tagged
		// with why: a checksum failure quarantines the client as
		// corrupt, not as a straggler.
		ct.AbortReason(dropReasonFor(err))
		return err
	}
	if err := skipPrior(cs.r); err != nil {
		// The update is fully folded by now; losing the trailer must
		// withdraw it, or the sums keep weight the total never sees.
		ct.AbortReason(dropReasonFor(err))
		return err
	}
	return ct.Commit()
}

// collectPartial folds one edge aggregator's regional partial sum,
// ignoring its Prior. The frame is checksum-verified before any of it
// touches the aggregate, so a corrupt region withdraws cleanly; an
// empty region (Updates == 0) is a round-level miss that keeps the
// edge's connection alive. The sums land in a landing; the span blob,
// which outlives the gather, never does.
func (t *tier) collectPartial(sk sink, st *roundSpanState, id string, cs *connStream) error {
	var p *orchestrator.Partial
	var ct *orchestrator.Contributor
	land := t.land.borrow(true)
	err := st.timeDecodeFold(func() (err error) {
		if p, err = hier.DecodePartialInto(cs.r, land.partial); err != nil {
			return err // the landing keeps its old, partly overwritten partial
		}
		if land.partial = p; p.Updates == 0 {
			return nil
		}
		if ct, err = sk.contributor(id, p.TotalWeight, p.Updates); err != nil {
			return err
		}
		for _, e := range p.Entries {
			if err := ct.FoldPartial(e); err != nil {
				ct.AbortReason(dropReasonFor(err))
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	// The span-summary trailer is observability, never control flow: an
	// undecodable one (newer edge, damaged blob — the frame itself
	// already passed its checksum) degrades to "no subtree".
	if len(p.Span) > 0 {
		if sum, err := obs.DecodeSpanSummary(p.Span); err == nil {
			st.attachChild(id, sum)
		}
	}
	if p.Updates == 0 {
		st.outcome(id, "empty_region")
		sk.withdrawn(id, orchestrator.DropDeadline, false)
		t.logf("%s: empty region, withdrawn for this round", id)
		return nil
	}
	return ct.Commit()
}

// roundSpanState accumulates one round's trace while the round runs:
// per-participant byte baselines, outcomes and settle times, the
// cumulative decode→fold time summed across the round's concurrent
// collectors, and the span summaries nested regions sent besides their
// partial sums.
type roundSpanState struct {
	decodeFoldNs atomic.Int64

	mu          sync.Mutex
	gatherStart time.Time
	clients     map[string]*spanEntry
	children    []obs.ChildSummary
}

type spanEntry struct {
	cs       *connStream
	rx0, tx0 int64
	outcome  string
	settleNs int64
}

func newRoundSpanState() *roundSpanState {
	return &roundSpanState{clients: make(map[string]*spanEntry)}
}

// track snapshots a participant's conn-level byte counters at round
// start; cs may be nil for a participant whose connection vanished.
func (st *roundSpanState) track(id string, cs *connStream) {
	e := &spanEntry{cs: cs}
	if cs != nil {
		e.rx0 = cs.bytesRead()
		e.tx0 = cs.bytesWritten()
	}
	st.mu.Lock()
	st.clients[id] = e
	st.mu.Unlock()
}

// startGather marks the start of the gather phase; participant settle
// times are measured from this instant, which it returns.
func (st *roundSpanState) startGather() time.Time {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.gatherStart = time.Now()
	return st.gatherStart
}

// timeDecodeFold runs one collector's decode→fold and adds its
// duration to the round's cumulative total.
func (st *roundSpanState) timeDecodeFold(decodeFold func() error) error {
	start := time.Now()
	defer func() { st.decodeFoldNs.Add(time.Since(start).Nanoseconds()) }()
	return decodeFold()
}

// settle records when a participant's contribution committed, measured
// from gather start.
func (st *roundSpanState) settle(id string) { st.outcome(id, "") }

// outcome records why a participant left the round and when; the first
// writer wins (a drop's true cause precedes cleanup-path noise) and
// pre-gather events record no time. The empty outcome only settles the
// time — close reads it as committed.
func (st *roundSpanState) outcome(id, o string) {
	st.mu.Lock()
	if e := st.clients[id]; e != nil {
		if e.outcome == "" {
			e.outcome = o
		}
		if e.settleNs == 0 && !st.gatherStart.IsZero() {
			e.settleNs = time.Since(st.gatherStart).Nanoseconds()
		}
	}
	st.mu.Unlock()
}

// attachChild stashes one region's decoded span summary for the
// round's trace tree.
func (st *roundSpanState) attachChild(id string, sum *obs.SpanSummary) {
	st.mu.Lock()
	st.children = append(st.children, obs.ChildSummary{ID: id, Sum: sum})
	st.mu.Unlock()
}

// close ends the gather phase and renders the per-participant records
// into span, newest byte counters minus the round-start baselines.
// Participants with no recorded outcome were never dropped, so they
// committed.
func (st *roundSpanState) close(span obs.RoundSpan) *gathered {
	st.mu.Lock()
	defer st.mu.Unlock()
	g := &gathered{span: span, commitStart: time.Now(), children: st.children}
	g.span.GatherNs = g.commitStart.Sub(st.gatherStart).Nanoseconds()
	g.span.DecodeFoldNs = st.decodeFoldNs.Load()
	g.span.Clients = make([]obs.SpanClient, 0, len(st.clients))
	for id, e := range st.clients {
		c := obs.SpanClient{ID: id, Outcome: e.outcome, TimeNs: e.settleNs}
		if c.Outcome == "" {
			c.Outcome = "committed"
		}
		if e.cs != nil {
			c.BytesUp = e.cs.bytesRead() - e.rx0
			c.BytesDown = e.cs.bytesWritten() - e.tx0
		}
		g.span.BytesUp += c.BytesUp
		g.span.BytesDown += c.BytesDown
		g.span.Clients = append(g.span.Clients, c)
	}
	sort.Slice(g.span.Clients, func(i, j int) bool { return g.span.Clients[i].ID < g.span.Clients[j].ID })
	return g
}
