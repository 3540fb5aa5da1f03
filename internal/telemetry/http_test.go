package telemetry

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"mummi/internal/errutil"
)

func TestMetricsServer(t *testing.T) {
	tel := Nop()
	tel.Registry().Counter("req_total").Add(7)
	tel.Registry().Gauge("depth").Set(2)

	srv, err := StartMetricsServer("127.0.0.1:0", tel)
	if err != nil {
		t.Fatalf("start: %v", err)
	}
	defer func() { errutil.CaptureClose(&err, srv.Close) }()

	get := func(path string) string {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer func() { errutil.CaptureClose(&err, resp.Body.Close) }()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("read %s: %v", path, err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		return string(b)
	}

	text := get("/metrics")
	if !strings.Contains(text, "req_total 7\n") || !strings.Contains(text, "depth 2\n") {
		t.Fatalf("/metrics text missing entries:\n%s", text)
	}

	var snap Snapshot
	if err := json.Unmarshal([]byte(get("/metrics.json")), &snap); err != nil {
		t.Fatalf("/metrics.json unmarshal: %v", err)
	}
	if len(snap.Counters) != 1 || snap.Counters[0].Name != "req_total" || snap.Counters[0].Value != 7 {
		t.Fatalf("/metrics.json counters: %+v", snap.Counters)
	}
}

// TestMetricsServerCloseJoinsServeGoroutine is the gate for the serve
// goroutine's join (docs/LINT.md, row C9): Close must not return while
// srv.Serve could still be running, so no request handler observes state
// torn down after Close; the serve goroutine has exited (done closed).
func TestMetricsServerCloseJoinsServeGoroutine(t *testing.T) {
	srv, err := StartMetricsServer("127.0.0.1:0", Nop())
	if err != nil {
		t.Fatalf("start: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	select {
	case <-srv.done:
	default:
		t.Fatal("Close returned before the serve goroutine exited")
	}
	// A second Close must not hang on the already-closed done channel.
	//lint:allow errdiscipline -- only the non-hanging property is under test
	srv.Close()
}
