package obs

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"ortoa/internal/obs/trace"
)

func TestMetricsExposition(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("ops_total", "completed operations").Add(3)
	reg.Gauge(`ortoa_window{proc="proxy"}`, "open window size").Set(7)
	h := reg.Histogram("e2e_seconds", "end-to-end latency")
	h.Observe(time.Millisecond)
	h.ObserveExemplar(90*time.Millisecond, 0xdeadbeefcafe)
	mux := AdminMux(reg)

	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("/metrics status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics content type %q", ct)
	}
	body := rec.Body.String()
	for _, tc := range []struct{ what, want string }{
		{"counter sample", "ops_total 3"},
		{"counter help", "# HELP ops_total completed operations"},
		{"counter type", "# TYPE ops_total counter"},
		{"labelled gauge", `ortoa_window{proc="proxy"} 7`},
		{"histogram count", "e2e_seconds_count 2"},
		{"histogram +Inf bucket", `e2e_seconds_bucket{le="+Inf"} 2`},
		{"slow-bucket exemplar", `# {trace_id="0000deadbeefcafe"}`},
		// AdminMux mounts the Go runtime metrics (satellite: runtime
		// observability rides the same registry as protocol metrics).
		{"goroutine gauge", "go_goroutines "},
		{"gomaxprocs gauge", "go_gomaxprocs "},
		{"cpu gauge", "go_cpus_available "},
		{"heap gauge", "go_heap_alloc_bytes "},
		{"gc pause histogram", "go_gc_pause_seconds_count"},
	} {
		if !strings.Contains(body, tc.want) {
			t.Errorf("/metrics missing %s %q", tc.what, tc.want)
		}
	}
}

func TestHealthzListsEveryFailedCheck(t *testing.T) {
	reg := NewRegistry()
	reg.Health("wal", func() error { return nil })
	mux := AdminMux(reg)

	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "ok") {
		t.Fatalf("healthy: got %d %q, want 200 ok", rec.Code, rec.Body.String())
	}

	reg.Health("shape_proxy", func() error { return errAlwaysShape })
	reg.Health("disk", func() error { return errAlwaysDisk })
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 503 {
		t.Fatalf("failing checks: status %d, want 503", rec.Code)
	}
	body := rec.Body.String()
	for _, want := range []string{"shape_proxy: 2 violations", "disk: out of space"} {
		if !strings.Contains(body, want) {
			t.Errorf("/healthz body %q missing %q", body, want)
		}
	}
	if strings.Contains(body, "wal") {
		t.Errorf("/healthz body %q must list only failed checks", body)
	}
}

var (
	errAlwaysShape = errString("2 violations")
	errAlwaysDisk  = errString("out of space")
)

type errString string

func (e errString) Error() string { return string(e) }

func TestTraceEndpointTable(t *testing.T) {
	reg := NewRegistry()
	tr := reg.Tracer("proxy", 64)
	roots := make([]*trace.Span, 3)
	for i := range roots {
		roots[i] = tr.StartRoot("lbl_access")
		roots[i].Child("rpc").End()
		roots[i].End()
	}
	// 6 finished spans total, 2 per trace.
	wantID := roots[1].TraceID()
	mux := AdminMux(reg)

	get := func(path string) (int, string) {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		return rec.Code, rec.Body.String()
	}
	decode := func(body string) traceDocJSON {
		var doc traceDocJSON
		if err := json.Unmarshal([]byte(body), &doc); err != nil {
			t.Fatalf("bad /trace JSON: %v\n%s", err, body)
		}
		return doc
	}

	for _, tc := range []struct {
		name       string
		path       string
		wantStatus int
		wantTotal  int
		wantSpans  int
	}{
		{"all spans", "/trace", 200, 6, 6},
		{"limit pages", "/trace?limit=4", 200, 6, 4},
		{"offset into tail", "/trace?limit=4&offset=4", 200, 6, 2},
		{"offset past end", "/trace?offset=100", 200, 6, 0},
		{"filter one trace", "/trace?trace=" + hex16(wantID), 200, 2, 2},
		{"filter accepts unpadded hex", "/trace?trace=" + strings.TrimLeft(hex16(wantID), "0"), 200, 2, 2},
		{"filter unknown trace", "/trace?trace=1", 200, 0, 0},
		{"bad trace id", "/trace?trace=zz", 400, 0, 0},
		{"bad limit", "/trace?limit=0", 400, 0, 0},
		{"bad offset", "/trace?offset=-1", 400, 0, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			status, body := get(tc.path)
			if status != tc.wantStatus {
				t.Fatalf("GET %s status %d, want %d (%s)", tc.path, status, tc.wantStatus, body)
			}
			if status != 200 {
				return
			}
			doc := decode(body)
			if doc.Total != tc.wantTotal || len(doc.Spans) != tc.wantSpans {
				t.Fatalf("GET %s: total=%d spans=%d, want total=%d spans=%d",
					tc.path, doc.Total, len(doc.Spans), tc.wantTotal, tc.wantSpans)
			}
			for _, sp := range doc.Spans {
				if sp.Process != "proxy" || sp.TraceID == "" || sp.SpanID == "" {
					t.Fatalf("span missing fields: %+v", sp)
				}
				if sp.Name == "rpc" && sp.ParentID == "" {
					t.Fatal("child span lost its parent id in JSON")
				}
			}
		})
	}
}

func hex16(id uint64) string {
	const digits = "0123456789abcdef"
	var b [16]byte
	for i := 15; i >= 0; i-- {
		b[i] = digits[id&0xf]
		id >>= 4
	}
	return string(b[:])
}

// TestAdminConcurrentScrape hammers every read endpoint while spans,
// counters, and shape observations are being recorded — the admin mux
// must be safe to scrape mid-flight (run under -race).
func TestAdminConcurrentScrape(t *testing.T) {
	reg := NewRegistry()
	tr := reg.Tracer("proxy", 128)
	aud := NewShapeAuditor(reg, "proxy")
	ops := reg.Counter("ops_total", "")
	lat := reg.Histogram("e2e_seconds", "")
	mux := AdminMux(reg)

	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := 0; i < 300; i++ {
				sp := tr.StartRoot("lbl_access")
				sp.Child("rpc").End()
				sp.End()
				ops.Inc()
				lat.ObserveExemplar(time.Duration(i)*time.Microsecond, sp.TraceID())
				aud.Observe("out", 0x02, 0, true, 512)
			}
		}()
	}
	for _, path := range []string{"/metrics", "/healthz", "/trace", "/trace?limit=5"} {
		readers.Add(1)
		go func(path string) {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					rec := httptest.NewRecorder()
					mux.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
					if rec.Code != 200 {
						t.Errorf("GET %s: status %d", path, rec.Code)
						return
					}
				}
			}
		}(path)
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	if got := aud.Violations(); got != 0 {
		t.Fatalf("uniform frames produced %d violations", got)
	}
}
