package main

import (
	"bytes"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/service"
)

// TestLoadModes drives every wire mode at a tiny scale against an
// in-process service and checks the run completes, reports the right
// step count, and cleans its sessions up.
func TestLoadModes(t *testing.T) {
	api := service.NewAPI()
	srv := httptest.NewServer(api.Handler())
	defer srv.Close()

	for _, mode := range []string{"v2-counts", "v2-values"} {
		t.Run(mode, func(t *testing.T) {
			var buf bytes.Buffer
			if err := run(&buf, srv.URL, mode, false, 2, 50, 3, 4, 7, 3, 0.1, 42, false, "csv"); err != nil {
				t.Fatal(err)
			}
			out := buf.String()
			if !strings.Contains(out, "14") { // 2 sessions x 7 steps
				t.Fatalf("output does not report 14 steps:\n%s", out)
			}
			if api.Registry().Len() != 0 {
				t.Fatalf("%d sessions left behind", api.Registry().Len())
			}
		})
	}
}

// TestLoadReportsLatencyPercentiles: the report carries the latency
// distribution columns, and the percentile math follows nearest-rank.
func TestLoadReportsLatencyPercentiles(t *testing.T) {
	api := service.NewAPI()
	srv := httptest.NewServer(api.Handler())
	defer srv.Close()
	var buf bytes.Buffer
	if err := run(&buf, srv.URL, "v2-counts", false, 1, 50, 3, 4, 7, 3, 0.1, 43, false, "csv"); err != nil {
		t.Fatal(err)
	}
	header := strings.SplitN(buf.String(), "\n", 2)[0]
	for _, col := range []string{"p50", "p95", "p99"} {
		if !strings.Contains(header, col) {
			t.Fatalf("report header lacks %s:\n%s", col, buf.String())
		}
	}

	sample := make([]time.Duration, 100)
	for i := range sample {
		sample[i] = time.Duration(i+1) * time.Millisecond // 1ms..100ms sorted
	}
	for _, tc := range []struct {
		p    float64
		want time.Duration
	}{
		{50, 50 * time.Millisecond},
		{95, 95 * time.Millisecond},
		{99, 99 * time.Millisecond},
		{100, 100 * time.Millisecond},
		{0, 1 * time.Millisecond},
	} {
		if got := percentile(sample, tc.p); got != tc.want {
			t.Errorf("percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile(empty) = %v, want 0", got)
	}
}

// TestLoadClusterModes drives the two cluster target shapes — a
// direct shard list and a router entry point with -topology — against
// two in-process shards, and checks the report carries per-shard rows
// alongside the aggregate.
func TestLoadClusterModes(t *testing.T) {
	apiA, apiB := service.NewAPI(), service.NewAPI()
	srvA := httptest.NewServer(apiA.Handler())
	defer srvA.Close()
	srvB := httptest.NewServer(apiB.Handler())
	defer srvB.Close()
	shards, err := cluster.ParseShards(srvA.URL + "," + srvB.URL)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := cluster.New(shards, 0)
	if err != nil {
		t.Fatal(err)
	}
	router := httptest.NewServer(cluster.NewRouter(topo).Handler())
	defer router.Close()

	for name, addr := range map[string]string{
		"shard-list": srvA.URL + "," + srvB.URL,
		"topology":   router.URL,
	} {
		t.Run(name, func(t *testing.T) {
			var buf bytes.Buffer
			// 6 sessions so both shards almost surely own at least one.
			if err := run(&buf, addr, "v2-counts", name == "topology", 6, 50, 3, 4, 7, 3, 0.1, 42, false, "csv"); err != nil {
				t.Fatal(err)
			}
			out := buf.String()
			if !strings.Contains(out, "all") || !strings.Contains(out, "shard-0") || !strings.Contains(out, "shard-1") {
				t.Fatalf("report lacks aggregate or per-shard rows:\n%s", out)
			}
			if !strings.Contains(out, "42") { // 6 sessions x 7 steps
				t.Fatalf("output does not report 42 steps:\n%s", out)
			}
			if apiA.Registry().Len()+apiB.Registry().Len() != 0 {
				t.Fatalf("sessions left behind: A=%d B=%d", apiA.Registry().Len(), apiB.Registry().Len())
			}
		})
	}
}

func TestLoadBadFlags(t *testing.T) {
	var buf bytes.Buffer
	for _, mode := range []string{"nope", "v1"} {
		if err := run(&buf, "http://127.0.0.1:1", mode, false, 1, 10, 2, 1, 1, 1, 0.1, 1, false, ""); err == nil {
			t.Fatalf("unknown mode %q accepted", mode)
		}
	}
	if err := run(&buf, "http://127.0.0.1:1", "v2-counts", false, 0, 10, 2, 1, 1, 1, 0.1, 1, false, ""); err == nil {
		t.Fatal("zero sessions accepted")
	}
}
