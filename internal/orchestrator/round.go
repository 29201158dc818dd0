package orchestrator

import (
	"fmt"
	"sync"
	"time"

	"fedsz/internal/model"
)

// Participant lifecycle states within a round.
const (
	participantSampled = iota // asked to train, nothing received yet
	participantFolding        // a contribution is in flight
	participantDone           // committed
	participantDropped        // straggler cut, death, or abort
)

// Round is one open synchronous aggregation round. Connection
// handlers feed it concurrently through Contributor; the driver
// closes it with Commit when the target update count is reached or
// its deadline clock fires.
type Round struct {
	coord    *Coordinator
	number   int
	version  int
	deadline time.Duration
	target   int
	agg      *Aggregator
	openedAt time.Time

	mu           sync.Mutex
	participants []string
	state        map[string]int
	committed    int
	dropped      int
	closed       bool
}

// Number returns the round's commit sequence number.
func (r *Round) Number() int { return r.number }

// Version returns the global model version the round trains from.
func (r *Round) Version() int { return r.version }

// Participants returns the sampled client ids (over-provisioned set).
func (r *Round) Participants() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.participants...)
}

// Target returns K — the update count the round wants; once Updates
// reaches it the driver should Commit without waiting for the
// over-provisioned extras.
func (r *Round) Target() int { return r.target }

// Deadline returns the advisory straggler cutoff the driver enforces
// on its own clock (zero = none).
func (r *Round) Deadline() time.Duration { return r.deadline }

// Updates returns the number of contributions committed so far.
func (r *Round) Updates() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.committed
}

// Filled reports whether the round has reached its target update
// count and can commit early.
func (r *Round) Filled() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.committed >= r.target
}

// Contributor opens the streaming contribution for one sampled
// participant. It errors for ids outside the sampled set, for
// duplicate submissions, and after the round closed — the driver
// drops such updates on the floor. The returned Contributor's
// Commit/Abort feed back into the round's accounting.
func (r *Round) Contributor(id string, weight float64) (*Contributor, error) {
	return r.open(id, func() (*Contributor, error) { return r.agg.Contributor(weight) })
}

// open moves a sampled participant to folding, opens its aggregator
// contribution through openAgg, and wires the contribution's
// Commit/Abort into the round's accounting.
func (r *Round) open(id string, openAgg func() (*Contributor, error)) (*Contributor, error) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil, fmt.Errorf("orchestrator: round %d already closed", r.number)
	}
	st, ok := r.state[id]
	if !ok {
		r.mu.Unlock()
		return nil, fmt.Errorf("orchestrator: client %q not sampled for round %d", id, r.number)
	}
	if st != participantSampled {
		r.mu.Unlock()
		return nil, fmt.Errorf("orchestrator: client %q already submitted in round %d", id, r.number)
	}
	// The aggregator outlives the round (the coordinator reuses it), so
	// the contribution registers as in flight under the same lock that
	// saw the round open: once Commit or Cancel has closed the round, no
	// late opener can reach sums the next round may already own.
	ct, err := openAgg()
	if err != nil {
		r.mu.Unlock()
		return nil, err
	}
	r.state[id] = participantFolding
	r.mu.Unlock()
	ct.onCommit = func() error {
		r.mu.Lock()
		defer r.mu.Unlock()
		if r.closed {
			// Backstop: the driver violated Commit's quiescence
			// contract and this update finished after the round
			// closed. Surface it so the caller drops the client's work.
			return fmt.Errorf("orchestrator: round %d closed before commit", r.number)
		}
		r.state[id] = participantDone
		r.committed++
		return nil
	}
	ct.onAbort = func(reason DropReason) {
		r.mu.Lock()
		dropped := false
		if st := r.state[id]; st == participantFolding {
			r.state[id] = participantDropped
			r.dropped++
			dropped = true
		}
		r.mu.Unlock()
		if dropped {
			r.coord.notifyDrop(id, reason)
		}
	}
	return ct, nil
}

// Submit folds a fully decoded update in one call — the buffer-path
// equivalent of Contributor for drivers that already hold the state
// dict.
func (r *Round) Submit(id string, sd *model.StateDict, weight float64) error {
	ct, err := r.Contributor(id, weight)
	if err != nil {
		return err
	}
	if err := foldEntries(ct, sd); err != nil {
		return err
	}
	return ct.Commit()
}

// Drop marks a sampled participant as cut from the round (straggler
// past the driver's deadline, disconnect before submitting) and
// notifies the coordinator's OnDrop hook with the given reason. A
// participant with an in-flight Contributor must be aborted through it
// instead (AbortReason carries the classification there).
func (r *Round) Drop(id string, reason DropReason) {
	r.mu.Lock()
	dropped := false
	if st, ok := r.state[id]; ok && st == participantSampled {
		r.state[id] = participantDropped
		r.dropped++
		dropped = true
	}
	r.mu.Unlock()
	if dropped {
		r.coord.notifyDrop(id, reason)
	}
}

// Commit finalizes the aggregate, installs it as the coordinator's
// new global model, and closes the round. It fails with ErrNoUpdates
// if nothing committed — the driver keeps the old global and starts a
// fresh round.
//
// Quiescence contract: every opened Contributor must have settled
// (Commit or Abort returned) before Commit is called, or its partial
// folds could leak into the finalized sums. Drivers get this for free
// by joining their per-connection handlers first — deadline
// enforcement closes the straggler's connection, which makes its
// handler Abort, after which the driver's wait releases and Commit is
// safe.
func (r *Round) Commit() (*model.StateDict, RoundStats, error) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil, RoundStats{}, fmt.Errorf("orchestrator: round %d already closed", r.number)
	}
	r.closed = true
	r.mu.Unlock()

	commitStart := time.Now()
	agg, err := r.agg.Finalize()
	if err != nil {
		r.coord.cancelRound(r)
		return nil, RoundStats{}, err
	}
	_, stats := r.coord.commitRound(r, agg)
	obsCommitSeconds.Observe(time.Since(commitStart).Seconds())
	if !r.openedAt.IsZero() {
		obsRoundSeconds.Observe(time.Since(r.openedAt).Seconds())
	}
	obsRounds.Inc()
	return agg, stats, nil
}

// Cancel abandons the round without committing, releasing the
// coordinator for a fresh StartRound.
func (r *Round) Cancel() {
	r.mu.Lock()
	r.closed = true
	r.mu.Unlock()
	r.coord.cancelRound(r)
}
