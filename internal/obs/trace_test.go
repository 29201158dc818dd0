package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func sampleSummary() *SpanSummary {
	return &SpanSummary{
		Span: RoundSpan{
			Tier: "edge", TraceID: "00deadbeef00cafe", Round: 7,
			Start:   time.Unix(0, 1_700_000_000_000_000_000),
			TotalNs: 900, BroadcastNs: 100, GatherNs: 700, DecodeFoldNs: 450, CommitNs: 100,
			BytesUp: 4096, BytesDown: 8192,
			Sampled: 3, Committed: 2, Dropped: 1,
			Clients: []SpanClient{
				{ID: "client-0001", Outcome: "committed", BytesUp: 2048, BytesDown: 4096, TimeNs: 650},
				{ID: "client-0002", Outcome: "deadline", BytesUp: 0, BytesDown: 4096, TimeNs: 700},
			},
		},
		Children: []ChildSummary{
			{ID: "edge-0001", Sum: &SpanSummary{Span: RoundSpan{
				Tier: "edge", TraceID: "00deadbeef00cafe", Round: 7,
				Start:   time.Unix(0, 1_700_000_000_100_000_000),
				TotalNs: 400, BroadcastNs: 50, GatherNs: 300, CommitNs: 50,
				Clients: []SpanClient{{ID: "client-0001", Outcome: "committed", TimeNs: 290}},
			}}},
		},
	}
}

func TestSpanSummaryRoundtrip(t *testing.T) {
	want := sampleSummary()
	blob := EncodeSpanSummary(want)
	got, err := DecodeSpanSummary(blob)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	// The codec round-trips everything it carries; compare via JSON to
	// cover nested children without a custom deep-equal.
	wj, _ := json.Marshal(want)
	gj, _ := json.Marshal(got)
	if string(wj) != string(gj) {
		t.Fatalf("roundtrip mismatch:\n want %s\n got  %s", wj, gj)
	}
}

func TestSpanSummaryRejectsBadInput(t *testing.T) {
	blob := EncodeSpanSummary(sampleSummary())

	// Every truncation point fails cleanly rather than panicking or
	// fabricating data.
	for cut := 0; cut < len(blob); cut++ {
		if _, err := DecodeSpanSummary(blob[:cut]); err == nil {
			t.Fatalf("truncation at %d decoded successfully", cut)
		}
	}

	// A future wire version is "no summary", not a crash.
	bad := append([]byte(nil), blob...)
	bad[0] = spanSummaryVersion + 1
	if _, err := DecodeSpanSummary(bad); err == nil {
		t.Fatal("unknown version decoded successfully")
	}

	if _, err := DecodeSpanSummary(nil); err == nil {
		t.Fatal("empty blob decoded successfully")
	}
}

func TestAssemblerTreeAndCriticalPath(t *testing.T) {
	tr := NewRoundTrace(8)
	asm := NewAssembler(8)

	// Coordinator round: two regions, edge-0002 gates the round and its
	// subtree arrived; within it client-0002 gated the regional gather.
	root := RoundSpan{
		Tier: "coordinator", TraceID: "t1", Round: 3,
		TotalNs: 1000, BroadcastNs: 100, GatherNs: 800, CommitNs: 100,
		Sampled: 2, Committed: 2,
		Clients: []SpanClient{
			{ID: "edge-0001", Outcome: "committed", TimeNs: 500},
			{ID: "edge-0002", Outcome: "committed", TimeNs: 800},
		},
	}
	asm.Attach("t1", "edge-0002", &SpanSummary{Span: RoundSpan{
		Tier: "edge", TraceID: "t1", Round: 3,
		TotalNs: 700, BroadcastNs: 100, GatherNs: 500, CommitNs: 100,
		Clients: []SpanClient{
			{ID: "client-0001", Outcome: "committed", TimeNs: 200},
			{ID: "client-0002", Outcome: "committed", TimeNs: 500},
		},
	}})
	tr.Add(root)

	trees := asm.Trees(tr, 0)
	if len(trees) != 1 {
		t.Fatalf("got %d trees, want 1", len(trees))
	}
	tree := trees[0]
	if tree.TraceID != "t1" || tree.Round != 3 || tree.WallNs != 1000 {
		t.Fatalf("tree header = %+v", tree)
	}

	// The grafted subtree hangs off the right participant, and the
	// participant marked critical is the gating one with zero slack.
	var gating, other *TreeParticipant
	for i := range tree.Root.Participants {
		p := &tree.Root.Participants[i]
		if p.ID == "edge-0002" {
			gating = p
		} else {
			other = p
		}
	}
	if gating == nil || !gating.Critical || gating.SlackNs != 0 || gating.Region == nil {
		t.Fatalf("gating participant = %+v", gating)
	}
	if other == nil || other.Critical || other.SlackNs != 300 || other.Region != nil {
		t.Fatalf("non-gating participant = %+v", other)
	}

	// Critical path: coordinator broadcast (100) → edge broadcast (100)
	// → client-0002 update (500) → edge commit (100) → wire forward
	// (800 − 700 = 100) → coordinator commit (100). Sums to 1000 = wall.
	if tree.CriticalNs != tree.WallNs {
		t.Fatalf("criticalNs = %d, wallNs = %d\npath: %+v", tree.CriticalNs, tree.WallNs, tree.CriticalPath)
	}
	phases := make([]string, 0, len(tree.CriticalPath))
	for _, s := range tree.CriticalPath {
		phases = append(phases, s.Tier+"/"+s.Phase)
	}
	want := "coordinator/broadcast edge/broadcast client/update edge/commit wire/forward coordinator/commit"
	if got := strings.Join(phases, " "); got != want {
		t.Fatalf("critical path = %q, want %q", got, want)
	}
}

func TestAssemblerWithoutSummariesDegrades(t *testing.T) {
	tr := NewRoundTrace(4)
	// A pre-tracing round: no trace ID, no settle times — gather stays
	// one opaque segment and nothing breaks.
	tr.Add(RoundSpan{Tier: "coordinator", Round: 1, TotalNs: 300, BroadcastNs: 100, GatherNs: 100, CommitNs: 100,
		Clients: []SpanClient{{ID: "client-0001", Outcome: "committed"}}})
	trees := NewAssembler(4).Trees(tr, 0)
	if len(trees) != 1 || trees[0].CriticalNs != 300 {
		t.Fatalf("trees = %+v", trees)
	}
	if len(trees[0].CriticalPath) != 3 || trees[0].CriticalPath[1].Phase != "gather" {
		t.Fatalf("path = %+v", trees[0].CriticalPath)
	}
}

func TestAssemblerEvictsOldTraces(t *testing.T) {
	asm := NewAssembler(2)
	for _, id := range []string{"a", "b", "c"} {
		asm.Attach(id, "edge-0001", &SpanSummary{})
	}
	if got := asm.children("a"); got != nil {
		t.Fatalf("oldest trace retained: %+v", got)
	}
	if asm.children("b") == nil || asm.children("c") == nil {
		t.Fatal("recent traces evicted")
	}
	asm.Resize(1)
	if asm.children("b") != nil || asm.children("c") == nil {
		t.Fatal("Resize did not evict oldest first")
	}
}

func TestRoundTraceResize(t *testing.T) {
	tr := NewRoundTrace(8)
	for i := 0; i < 8; i++ {
		tr.Add(RoundSpan{Round: i})
	}
	tr.Resize(3)
	if tr.Cap() != 3 || tr.Len() != 3 {
		t.Fatalf("cap=%d len=%d after shrink, want 3/3", tr.Cap(), tr.Len())
	}
	got := tr.Recent(0)
	if got[0].Round != 5 || got[2].Round != 7 {
		t.Fatalf("shrink kept %+v, want rounds 5..7", got)
	}
	// Growing keeps everything and the ring keeps rotating correctly.
	tr.Resize(5)
	for i := 8; i < 12; i++ {
		tr.Add(RoundSpan{Round: i})
	}
	got = tr.Recent(0)
	if len(got) != 5 || got[0].Round != 7 || got[4].Round != 11 {
		t.Fatalf("post-grow recent = %+v, want rounds 7..11", got)
	}
}

func TestHealthAndReadyEndpoints(t *testing.T) {
	tr := NewRoundTrace(4)
	srv := httptest.NewServer(Handler(NewRegistry(), tr))
	defer srv.Close()

	get := func(path string) int {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}

	if code := get("/healthz"); code != 200 {
		t.Fatalf("/healthz = %d", code)
	}
	// Not ready until the first round span lands.
	if code := get("/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz before first round = %d, want 503", code)
	}
	tr.Add(RoundSpan{Tier: "coordinator", Round: 0})
	if code := get("/readyz"); code != 200 {
		t.Fatalf("/readyz after first round = %d", code)
	}
}

func TestRoundsTreeEndpoint(t *testing.T) {
	tr := NewRoundTrace(4)
	tr.Add(RoundSpan{Tier: "coordinator", TraceID: "t9", Round: 2,
		TotalNs: 100, BroadcastNs: 30, GatherNs: 40, CommitNs: 30})
	srv := httptest.NewServer(Handler(NewRegistry(), tr))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/rounds/tree?n=4")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	var trees []Tree
	if err := json.Unmarshal(body, &trees); err != nil {
		t.Fatalf("/rounds/tree not JSON: %v\n%s", err, body)
	}
	if len(trees) != 1 || trees[0].Round != 2 || trees[0].Root == nil || len(trees[0].CriticalPath) == 0 {
		t.Fatalf("/rounds/tree = %+v", trees)
	}
	if resp, err := http.Get(srv.URL + "/rounds/tree?n=x"); err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("bad n = %d, want 400", resp.StatusCode)
		}
	}
}
