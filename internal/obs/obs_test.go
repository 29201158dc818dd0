package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "a counter")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g := r.Gauge("test_depth", "a gauge")
	g.Set(7)
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Fatalf("gauge = %d, want 4", got)
	}
	fg := r.FloatGauge("test_bound", "a float gauge")
	fg.Set(1e-3)
	if got := fg.Value(); got != 1e-3 {
		t.Fatalf("float gauge = %g, want 1e-3", got)
	}
	// Same name+schema resolves to the same instrument.
	if r.Counter("test_total", "a counter") != c {
		t.Fatal("re-resolution returned a different counter")
	}
}

func TestNilInstrumentsAreNoOps(t *testing.T) {
	var c *Counter
	var g *Gauge
	var fg *FloatGauge
	var h *Histogram
	var tr *RoundTrace
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Add(1)
	fg.Set(1)
	h.Observe(1)
	tr.Add(RoundSpan{})
	if c.Value() != 0 || g.Value() != 0 || fg.Value() != 0 || h.Count() != 0 || tr.Len() != 0 {
		t.Fatal("nil instruments must read zero")
	}
}

func TestDisabledRegistryAndGlobalSwitch(t *testing.T) {
	if c := Disabled.Counter("x_total", ""); c != nil {
		t.Fatal("inert registry must hand out nil instruments")
	}
	if v := Disabled.CounterVec("y_total", "", "k"); v.With("a") != nil {
		t.Fatal("inert vec must hand out nil instruments")
	}
	var inert strings.Builder
	Disabled.WritePrometheus(&inert)
	if inert.Len() != 0 {
		t.Fatalf("inert exposition = %q, want nothing", inert.String())
	}

	r := NewRegistry()
	c := r.Counter("sw_total", "")
	SetDisabled(true)
	c.Add(10)
	SetDisabled(false)
	c.Add(1)
	if got := c.Value(); got != 1 {
		t.Fatalf("counter after disabled window = %d, want 1", got)
	}
}

func TestHistogramBucketsAndSum(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "latency", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 3, 100} {
		h.Observe(v)
	}
	if got := h.Count(); got != 5 {
		t.Fatalf("count = %d, want 5", got)
	}
	if got := h.Sum(); got != 106 {
		t.Fatalf("sum = %g, want 106", got)
	}
	var text strings.Builder
	r.WritePrometheus(&text)
	// Cumulative: ≤1, ≤2, ≤4, +Inf.
	for _, want := range []string{
		`lat_seconds_bucket{le="1"} 2`,
		`lat_seconds_bucket{le="2"} 3`,
		`lat_seconds_bucket{le="4"} 4`,
		`lat_seconds_bucket{le="+Inf"} 5`,
	} {
		if !strings.Contains(text.String(), want+"\n") {
			t.Fatalf("exposition missing %q:\n%s", want, text.String())
		}
	}
	if got := strings.Count(text.String(), "lat_seconds_bucket"); got != 4 {
		t.Fatalf("%d bucket lines, want 4:\n%s", got, text.String())
	}
}

// TestRegistryConcurrentUpdates hammers one vec and one histogram
// from many goroutines — the fold-shard pattern — and checks totals.
// Run under -race this is the registry's main correctness test.
func TestRegistryConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	vec := r.CounterVec("fold_total", "", "shard")
	hist := r.Histogram("fold_seconds", "", DurationBuckets)
	gauge := r.Gauge("fold_inflight", "")

	const workers = 16
	const perWorker = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			shard := fmt.Sprintf("s%d", w%4)
			for i := 0; i < perWorker; i++ {
				vec.With(shard).Inc()
				hist.Observe(float64(i%7) * 1e-3)
				gauge.Add(1)
				gauge.Add(-1)
			}
		}(w)
	}
	// Concurrent readers exercise exposition-vs-update races.
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				return
			default:
				var sb strings.Builder
				r.WritePrometheus(&sb)
			}
		}
	}()
	wg.Wait()
	close(done)

	var total int64
	for shard := 0; shard < 4; shard++ {
		total += int64(r.Value("fold_total", fmt.Sprintf("s%d", shard)))
	}
	if want := int64(workers * perWorker); total != want {
		t.Fatalf("fold_total sum = %d, want %d", total, want)
	}
	if got := hist.Count(); got != workers*perWorker {
		t.Fatalf("hist count = %d, want %d", got, workers*perWorker)
	}
	if got := gauge.Value(); got != 0 {
		t.Fatalf("gauge = %d, want 0", got)
	}
}

func TestRoundTraceRing(t *testing.T) {
	tr := NewRoundTrace(4)
	for i := 0; i < 10; i++ {
		tr.Add(RoundSpan{Round: i})
	}
	if tr.Len() != 4 || tr.Total() != 10 {
		t.Fatalf("len=%d total=%d, want 4/10", tr.Len(), tr.Total())
	}
	got := tr.Recent(0)
	for i, s := range got {
		if want := 6 + i; s.Round != want {
			t.Fatalf("recent[%d].Round = %d, want %d (all %+v)", i, s.Round, want, got)
		}
	}
	last := tr.Recent(2)
	if len(last) != 2 || last[0].Round != 8 || last[1].Round != 9 {
		t.Fatalf("recent(2) = %+v, want rounds 8,9", last)
	}
}

func TestRoundTraceConcurrent(t *testing.T) {
	tr := NewRoundTrace(8)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				tr.Add(RoundSpan{Round: i, Tier: "t"})
				tr.Recent(4)
			}
		}(w)
	}
	wg.Wait()
	if tr.Total() != 4000 {
		t.Fatalf("total = %d, want 4000", tr.Total())
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("plain_total", "plain help").Add(3)
	r.CounterVec("lbl_total", "", "family", "dir").With("sz2", "tx").Add(9)
	r.Histogram("h_seconds", "hist", []float64{0.5, 2}).Observe(1)

	var sb strings.Builder
	r.WritePrometheus(&sb)
	out := sb.String()
	for _, want := range []string{
		"# HELP plain_total plain help\n",
		"# TYPE plain_total counter\n",
		"plain_total 3\n",
		`lbl_total{family="sz2",dir="tx"} 9` + "\n",
		"# TYPE h_seconds histogram\n",
		`h_seconds_bucket{le="0.5"} 0` + "\n",
		`h_seconds_bucket{le="2"} 1` + "\n",
		`h_seconds_bucket{le="+Inf"} 1` + "\n",
		"h_seconds_sum 1\n",
		"h_seconds_count 1\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

func TestHandlerEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("ep_total", "").Add(42)
	tr := NewRoundTrace(4)
	tr.Add(RoundSpan{Tier: "coordinator", Round: 1, Start: time.Unix(0, 0), TotalNs: 5})
	srv := httptest.NewServer(Handler(reg, tr))
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}

	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "ep_total 42") {
		t.Fatalf("/metrics code=%d body=%q", code, body)
	}
	code, body := get("/rounds?n=10")
	if code != 200 {
		t.Fatalf("/rounds code=%d", code)
	}
	var spans []RoundSpan
	if err := json.Unmarshal([]byte(body), &spans); err != nil {
		t.Fatalf("/rounds not JSON: %v\n%s", err, body)
	}
	if len(spans) != 1 || spans[0].Round != 1 || spans[0].Tier != "coordinator" {
		t.Fatalf("/rounds = %+v", spans)
	}
	if code, _ := get("/debug/pprof/"); code != 200 {
		t.Fatalf("/debug/pprof/ code=%d", code)
	}
	for _, gone := range []string{"/nope", "/debug/vars"} {
		if code, _ := get(gone); code != 404 {
			t.Fatalf("%s code=%d, want 404", gone, code)
		}
	}
}

func TestServeAndClose(t *testing.T) {
	s, err := Serve(Config{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	resp, err := http.Get("http://" + s.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("code = %d", resp.StatusCode)
	}
	if s2, err := Serve(Config{}); err != nil || s2 != nil {
		t.Fatalf("empty addr Serve = %v, %v; want nil, nil", s2, err)
	}
}

// TestRuntimeSeriesSampledAtScrape pins the process-memory series: they
// are present on the default registry, move only when the registry is
// exposed, and the totals never run backwards.
func TestRuntimeSeriesSampledAtScrape(t *testing.T) {
	scrape := func() (alloc, live, cycles float64) {
		var b strings.Builder
		Default.WritePrometheus(&b)
		for _, name := range []string{"fedsz_runtime_alloc_bytes_total", "fedsz_runtime_heap_live_bytes", "fedsz_runtime_gc_cycles_total"} {
			if !strings.Contains(b.String(), "\n"+name+" ") {
				t.Fatalf("/metrics is missing %s:\n%s", name, b.String())
			}
		}
		return Default.Value("fedsz_runtime_alloc_bytes_total"), Default.Value("fedsz_runtime_heap_live_bytes"), Default.Value("fedsz_runtime_gc_cycles_total")
	}
	a0, _, c0 := scrape()
	if a0 <= 0 {
		t.Fatalf("alloc bytes total = %v, want > 0", a0)
	}

	sink := make([][]byte, 64)
	for i := range sink {
		sink[i] = make([]byte, 1<<20)
	}
	runtime.GC()
	// Between scrapes nothing samples: the instruments still read a0.
	if got := Default.Value("fedsz_runtime_alloc_bytes_total"); got != a0 {
		t.Fatalf("alloc bytes total moved without a scrape: %v -> %v", a0, got)
	}
	a1, live, c1 := scrape()
	if a1-a0 < float64(len(sink)<<20) {
		t.Fatalf("alloc bytes total rose by %v over a %d MiB allocation", a1-a0, len(sink))
	}
	if c1 <= c0 {
		t.Fatalf("gc cycles total %v -> %v across runtime.GC()", c0, c1)
	}
	if live < float64(len(sink)<<20) {
		t.Fatalf("heap live = %v with %d MiB held", live, len(sink))
	}
	runtime.KeepAlive(sink)
}
