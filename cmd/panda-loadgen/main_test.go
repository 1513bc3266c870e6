package main

import (
	"encoding/json"
	"math/rand"
	"net"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"panda"
	"panda/internal/server"
)

// TestPerRunMetricsAreDeltas runs two back-to-back loads against an
// in-process server and checks that each run's scraped request count is
// that run's own completed count, not the server's lifetime total.
func TestPerRunMetricsAreDeltas(t *testing.T) {
	const dims = 3
	rng := rand.New(rand.NewSource(5))
	coords := make([]float32, 2000*dims)
	for i := range coords {
		coords[i] = rng.Float32()
	}
	tree, err := panda.Build(coords, dims, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(tree, server.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	metrics := httptest.NewServer(srv.MetricsHandler())
	defer metrics.Close()
	defer srv.Shutdown(t.Context())

	out := filepath.Join(t.TempDir(), "report.json")
	if err := run(ln.Addr().String(), 0, "300,300", 300*time.Millisecond, 0, 2, 0.2, "4:0.5,16:0.5",
		0.01, 0, 64, 1, "", out, metrics.URL, "test", 1024); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(blob, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Runs) != 2 {
		t.Fatalf("%d runs in the report, want 2", len(rep.Runs))
	}
	for i, r := range rep.Runs {
		if r.Completed == 0 || r.Errors != 0 || r.Overloaded != 0 || r.Lagged != 0 {
			t.Fatalf("run %d: completed %d, errors %d, overloaded %d, lagged %d", i, r.Completed, r.Errors, r.Overloaded, r.Lagged)
		}
		if got := r.Metrics["panda_request_latency_seconds_count"]; got != float64(r.Completed) {
			t.Errorf("run %d: Δpanda_request_latency_seconds_count = %v, completed %d", i, got, r.Completed)
		}
		if r.ServerQueries != r.Completed {
			t.Errorf("run %d: server_queries = %d, completed %d", i, r.ServerQueries, r.Completed)
		}
		if r.MeanBatchSize < 1 {
			t.Errorf("run %d: mean batch size %v, want ≥ 1", i, r.MeanBatchSize)
		}
	}
}
