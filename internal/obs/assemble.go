// Span assembly: merge the edge tiers' span-summary trailers into the
// local round-span ring to form one federation-wide tree per round,
// and compute the round's critical path — the chain of region → client
// → phase whose wall time bounded the round, with slack for everything
// that finished early.
//
// The coordinator's own RoundSpans live in the RoundTrace ring; remote
// summaries arrive once per region per round (decoded off the
// MsgPartialSum trailer by the transport) and are attached here keyed
// by trace ID. Tree construction happens at read time (/rounds/tree),
// so the per-round cost on the serving path is one map insert.
package obs

import "sync"

// Tree is one assembled federation round: the local tier's span as the
// root, every region that shipped a summary grafted under its
// participant record, and the computed critical path.
type Tree struct {
	TraceID string `json:"trace_id,omitempty"`
	Round   int    `json:"round"`
	// WallNs is the root span's measured wall time.
	WallNs int64 `json:"wall_ns"`
	// CriticalNs is the critical path's total — the sum of its segment
	// durations. It is ≤ WallNs up to scheduler noise; the gap is time
	// the root tier spent outside its own phases.
	CriticalNs int64 `json:"critical_ns"`
	// CriticalPath walks root broadcast → (the gating participant's
	// chain, descending through edge tiers) → root commit.
	CriticalPath []PathSegment `json:"critical_path"`
	Root         *TreeNode     `json:"root"`
}

// PathSegment is one hop of a critical path.
type PathSegment struct {
	// Tier is the tier the time was spent on: "coordinator", "edge",
	// "client" (a leaf participant), or "wire" (transfer/forward time
	// not attributable to a child's own phases).
	Tier string `json:"tier"`
	// ID names the participant for participant-level segments (empty
	// for the root tier's own phases).
	ID string `json:"id,omitempty"`
	// Phase is "broadcast", "gather", "update", "commit" or "forward".
	Phase string `json:"phase"`
	Ns    int64  `json:"ns"`
}

// TreeNode is one tier's view of the round inside a Tree.
type TreeNode struct {
	Tier         string            `json:"tier"`
	Round        int               `json:"round"`
	TotalNs      int64             `json:"total_ns"`
	BroadcastNs  int64             `json:"broadcast_ns"`
	GatherNs     int64             `json:"gather_ns"`
	DecodeFoldNs int64             `json:"decode_fold_ns"`
	CommitNs     int64             `json:"commit_ns"`
	BytesUp      int64             `json:"bytes_up"`
	BytesDown    int64             `json:"bytes_down"`
	Sampled      int               `json:"sampled"`
	Committed    int               `json:"committed"`
	Dropped      int               `json:"dropped"`
	Down         *SpanDownlink     `json:"down,omitempty"`
	Participants []TreeParticipant `json:"participants,omitempty"`
}

// TreeParticipant is one participant of a tier's round: a direct
// client, or a region (whose Region subtree is non-nil when its
// summary trailer arrived — a pre-tracing or killed edge appears with
// its outcome but no subtree).
type TreeParticipant struct {
	ID      string `json:"id"`
	Outcome string `json:"outcome"`
	BytesUp int64  `json:"bytes_up"`
	// TimeNs is when the participant settled, from gather start.
	TimeNs int64 `json:"time_ns"`
	// SlackNs is how much later this participant could have settled
	// without extending the round: gating settle time minus its own.
	// Zero for the gating (critical) participant.
	SlackNs int64 `json:"slack_ns"`
	// Critical marks the participant whose settle time gated the
	// round at this tier.
	Critical bool `json:"critical,omitempty"`
	// Region is the participant's own round subtree when it is an
	// edge aggregator whose span summary joined the trace; nil for
	// plain clients and for regions whose trailer never arrived
	// (mixed-version edge, or an edge that died mid-round — a
	// withdrawn subtree keeps its outcome and loses its detail).
	Region *TreeNode `json:"region,omitempty"`
}

// Assembler collects remote span summaries keyed by trace ID and joins
// them with a local RoundTrace into per-round Trees. Retention is
// FIFO-bounded; a nil *Assembler drops attaches and assembles bare
// (local-only) trees.
type Assembler struct {
	mu      sync.Mutex
	cap     int
	order   []string // trace IDs, oldest first
	byTrace map[string][]ChildSummary
}

// DefaultAssembler receives every edge summary the transport decodes
// and backs the /rounds/tree endpoint.
var DefaultAssembler = NewAssembler(DefaultTraceCap)

// NewAssembler returns an assembler retaining summaries for the last
// cap trace IDs.
func NewAssembler(cap int) *Assembler {
	if cap < 1 {
		cap = 1
	}
	return &Assembler{cap: cap, byTrace: make(map[string][]ChildSummary)}
}

// Attach records one region's summary for a trace ID under the ID the
// local tier assigned that region. Summaries with an empty trace ID
// are dropped — they cannot join any tree.
func (a *Assembler) Attach(traceID, id string, sum *SpanSummary) {
	if a == nil || traceID == "" || sum == nil || off.Load() {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if _, ok := a.byTrace[traceID]; !ok {
		for len(a.order) >= a.cap {
			evict := a.order[0]
			a.order = a.order[1:]
			delete(a.byTrace, evict)
		}
		a.order = append(a.order, traceID)
	}
	a.byTrace[traceID] = append(a.byTrace[traceID], ChildSummary{ID: id, Sum: sum})
}

// Resize changes the assembler's trace-ID retention, evicting oldest
// first.
func (a *Assembler) Resize(n int) {
	if a == nil {
		return
	}
	if n < 1 {
		n = 1
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.cap = n
	for len(a.order) > n {
		evict := a.order[0]
		a.order = a.order[1:]
		delete(a.byTrace, evict)
	}
}

// children returns the summaries attached under traceID.
func (a *Assembler) children(traceID string) []ChildSummary {
	if a == nil || traceID == "" {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.byTrace[traceID]
}

// Trees assembles the newest-last n rounds of trace into federation
// trees (n <= 0: all retained rounds), grafting every attached remote
// summary and computing each round's critical path.
func (a *Assembler) Trees(trace *RoundTrace, n int) []Tree {
	spans := trace.Recent(n)
	out := make([]Tree, 0, len(spans))
	for _, sp := range spans {
		out = append(out, a.tree(sp))
	}
	return out
}

// tree assembles one round.
func (a *Assembler) tree(sp RoundSpan) Tree {
	sum := &SpanSummary{Span: sp, Children: a.children(sp.TraceID)}
	root, path, criticalNs := buildNode(sum)
	return Tree{
		TraceID:      sp.TraceID,
		Round:        sp.Round,
		WallNs:       sp.TotalNs,
		CriticalNs:   criticalNs,
		CriticalPath: path,
		Root:         root,
	}
}

// buildNode renders one tier's span (with its attached child
// summaries) into a TreeNode and that tier's critical-path segments:
// broadcast, the gather decomposition (descending into the gating
// region when its subtree is known), and commit.
func buildNode(s *SpanSummary) (*TreeNode, []PathSegment, int64) {
	sp := s.Span
	node := &TreeNode{
		Tier:         sp.Tier,
		Round:        sp.Round,
		TotalNs:      sp.TotalNs,
		BroadcastNs:  sp.BroadcastNs,
		GatherNs:     sp.GatherNs,
		DecodeFoldNs: sp.DecodeFoldNs,
		CommitNs:     sp.CommitNs,
		BytesUp:      sp.BytesUp,
		BytesDown:    sp.BytesDown,
		Sampled:      sp.Sampled,
		Committed:    sp.Committed,
		Dropped:      sp.Dropped,
		Down:         sp.Down,
	}

	children := make(map[string]*SpanSummary, len(s.Children))
	for _, ch := range s.Children {
		if ch.Sum != nil {
			children[ch.ID] = ch.Sum
		}
	}

	// The gating participant: latest settle time from gather start.
	gatingIdx, gatingNs := -1, int64(0)
	for i, c := range sp.Clients {
		if c.TimeNs > gatingNs {
			gatingIdx, gatingNs = i, c.TimeNs
		}
	}

	var gatingChild *SpanSummary
	var gatingID string
	node.Participants = make([]TreeParticipant, 0, len(sp.Clients))
	for i, c := range sp.Clients {
		p := TreeParticipant{
			ID:      c.ID,
			Outcome: c.Outcome,
			BytesUp: c.BytesUp,
			TimeNs:  c.TimeNs,
		}
		if c.TimeNs > 0 {
			p.SlackNs = gatingNs - c.TimeNs
		}
		if i == gatingIdx {
			p.Critical = true
			gatingID = c.ID
		}
		if ch := children[c.ID]; ch != nil {
			sub, _, _ := buildNode(ch)
			p.Region = sub
			if i == gatingIdx {
				gatingChild = ch
			}
		}
		node.Participants = append(node.Participants, p)
	}

	// Critical path for this tier. Phases are sequential; the gather
	// phase is attributed to the gating participant's chain.
	var path []PathSegment
	var total int64
	add := func(seg PathSegment) {
		if seg.Ns < 0 {
			seg.Ns = 0
		}
		path = append(path, seg)
		total += seg.Ns
	}
	add(PathSegment{Tier: sp.Tier, Phase: "broadcast", Ns: sp.BroadcastNs})
	switch {
	case gatingIdx < 0:
		// No participant settle times (empty round, or spans recorded
		// by a pre-tracing tier): keep gather as one opaque segment.
		add(PathSegment{Tier: sp.Tier, Phase: "gather", Ns: sp.GatherNs})
	case gatingChild != nil:
		// The gating participant is a region whose subtree is known:
		// descend, then attribute what its own phases don't explain
		// (network transfer, partial upload) to the wire.
		_, subPath, subNs := buildNode(gatingChild)
		path = append(path, subPath...)
		total += subNs
		add(PathSegment{Tier: "wire", ID: gatingID, Phase: "forward", Ns: gatingNs - subNs})
	default:
		tier := "client"
		if len(gatingID) >= 4 && gatingID[:4] == "edge" {
			tier = "edge"
		}
		add(PathSegment{Tier: tier, ID: gatingID, Phase: "update", Ns: gatingNs})
	}
	add(PathSegment{Tier: sp.Tier, Phase: "commit", Ns: sp.CommitNs})
	return node, path, total
}
