package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/loadgen"
	"repro/internal/plugins/logs"
	"repro/internal/plugins/manager"
	"repro/internal/report"
	"repro/internal/service"
	"repro/tpl/client"
)

// The wire-API perf smoke behind -fig api: how fast can a tenant push
// time steps into the accountant over HTTP? Wire shapes measured
// against a real TCP server with identical 100k-user sessions (10
// cohorts, so each landed step does the same accounting work in every
// mode):
//
//   - v2-ndjson-values: the batch endpoint, NDJSON, per-user values.
//     Amortizes the per-request overhead but still pays the dominant
//     cost, JSON-decoding 100k integers per step.
//   - v2-ndjson-counts: the batch endpoint, NDJSON, pre-aggregated
//     histograms. The at-scale wire shape: a step is domain-sized, so
//     the transport stops being the bottleneck entirely.
//   - v2-ndjson-counts-minimal: the same wire shape with
//     `Prefer: return=minimal`, skipping the per-step noisy-value echo
//     in the response — the recommended high-rate ingest contract.
//   - v2-ndjson-counts-contended: aggregate throughput of several
//     sessions ingesting counts batches concurrently — the striped
//     registry's contention number.
//
// Each mode is warmed up untimed, then measured over a bounded-time
// window (not a fixed tiny request count — the old harness timed the
// counts row over ~3ms, which made the trajectory noise). Request
// bodies are pre-encoded outside the timed window. Alloc/op comes from
// runtime.MemStats deltas around the timed window and is process-wide:
// client and server share the process, so it bounds the server's
// steady-state garbage from above. Written as BENCH_api.json so CI
// tracks the trajectory next to BENCH_engine.json and
// BENCH_persist.json (the perf-gate job fails on >15% regressions).

// apiPoint is one row of BENCH_api.json.
type apiPoint struct {
	Mode          string  `json:"mode"`
	Steps         int     `json:"steps"`
	Requests      int     `json:"requests"`
	Writers       int     `json:"writers,omitempty"` // concurrent writers (contended + cluster rows)
	BytesPerStep  int     `json:"bytes_per_step"`
	NsPerStep     int64   `json:"ns_per_step"`
	StepsPerSec   float64 `json:"steps_per_sec"`
	AllocsPerStep float64 `json:"allocs_per_step"` // process-wide (client+server)
	// Cluster rows only: the aggregate split per shard, and the
	// aggregate over cluster-1's (the near-linear-scaling claim the
	// perf gate holds — both field names match gated patterns).
	PerShardStepsPerSec float64 `json:"per_shard_steps_per_sec,omitempty"`
	ScalingSpeedup      float64 `json:"scaling_speedup_vs_cluster1,omitempty"`
}

// apiBenchFile is the BENCH_api.json document.
type apiBenchFile struct {
	Benchmark string     `json:"benchmark"`
	Users     int        `json:"users"`
	Domain    int        `json:"domain"`
	Cohorts   int        `json:"cohorts"`
	Points    []apiPoint `json:"points"`
	Note      string     `json:"note"`
}

// encodeStepJSON renders one step object ({"values":[...]} or
// {"counts":[...]}) with an explicit budget.
func encodeStepJSON(key string, data []int, eps float64) []byte {
	var buf bytes.Buffer
	buf.WriteString(`{"` + key + `":[`)
	for i, v := range data {
		if i > 0 {
			buf.WriteByte(',')
		}
		buf.WriteString(strconv.Itoa(v))
	}
	buf.WriteString(`],"eps":` + strconv.FormatFloat(eps, 'g', -1, 64) + `}`)
	return buf.Bytes()
}

// poster sends pre-encoded bodies to one endpoint, re-using a URL
// parsed once and a header map built once. http.NewRequest re-parses
// the URL (a percent-escape scan) and allocates fresh headers on every
// call — client-side overhead the harness would otherwise charge to
// the server being measured. The transport treats URL and Header as
// read-only, so sharing them across this poster's requests is safe
// (contended mode gives each writer its own poster).
type poster struct {
	hc     *http.Client
	u      *url.URL
	header http.Header
}

// newPoster builds a poster for one endpoint. minimal asks the server
// for the batch-ack-only response (RFC 7240).
func newPoster(hc *http.Client, rawURL, contentType string, minimal bool) (*poster, error) {
	u, err := url.Parse(rawURL)
	if err != nil {
		return nil, err
	}
	h := http.Header{"Content-Type": []string{contentType}}
	if minimal {
		h.Set("Prefer", "return=minimal")
	}
	return &poster{hc: hc, u: u, header: h}, nil
}

// post sends one pre-encoded body and drains the response.
func (p *poster) post(body []byte) error {
	req := &http.Request{
		Method:        http.MethodPost,
		URL:           p.u,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        p.header,
		Host:          p.u.Host,
		Body:          io.NopCloser(bytes.NewReader(body)),
		ContentLength: int64(len(body)),
	}
	resp, err := p.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		out, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("%s: %s", resp.Status, out)
	}
	_, err = io.Copy(io.Discard, resp.Body)
	return err
}

// timedResult is one measured window.
type timedResult struct {
	steps, requests int
	elapsed         time.Duration
	allocsPerStep   float64
}

// runTimed posts the pre-encoded bodies cyclically: one untimed warmup
// pass, then a timed loop that runs at least one full pass AND at least
// minWindow of wall clock — short fixed request counts made the old
// trajectory numbers noise. Alloc accounting wraps only the timed loop.
func runTimed(minWindow time.Duration, stepsPerBody []int, post func(i int) error) (timedResult, error) {
	n := len(stepsPerBody)
	for i := 0; i < n; i++ {
		if err := post(i); err != nil {
			return timedResult{}, fmt.Errorf("warmup: %w", err)
		}
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var res timedResult
	start := time.Now()
	for i := 0; ; i++ {
		if err := post(i % n); err != nil {
			return timedResult{}, err
		}
		res.steps += stepsPerBody[i%n]
		res.requests++
		if res.requests >= n && time.Since(start) >= minWindow {
			break
		}
	}
	res.elapsed = time.Since(start)
	runtime.ReadMemStats(&after)
	res.allocsPerStep = float64(after.Mallocs-before.Mallocs) / float64(res.steps)
	return res, nil
}

// point converts a timed window into a BENCH_api.json row.
func (r timedResult) point(mode string, bytesPerStep int) apiPoint {
	return apiPoint{
		Mode: mode, Steps: r.steps, Requests: r.requests,
		BytesPerStep:  bytesPerStep,
		NsPerStep:     r.elapsed.Nanoseconds() / int64(r.steps),
		StepsPerSec:   float64(r.steps) / r.elapsed.Seconds(),
		AllocsPerStep: r.allocsPerStep,
	}
}

// runAPIBench measures the wire modes and optionally writes
// BENCH_api.json.
func runAPIBench(wr *report.Writer, seed int64, full bool, jsonPath string) error {
	users, domain, cohorts := 100_000, 4, 10
	batch := 96
	minWindow := 500 * time.Millisecond
	contendedWriters := 8
	if full {
		minWindow = 2 * time.Second
	}
	rng := rand.New(rand.NewSource(seed))

	// A real TCP server: every row pays genuine per-request overhead,
	// not httptest in-process shortcuts.
	api := service.NewAPI()
	hs := &http.Server{Handler: api.Handler()}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	go hs.Serve(ln)
	defer hs.Close()
	base := "http://" + ln.Addr().String()
	hc := &http.Client{}
	c, err := client.New(base)
	if err != nil {
		return err
	}
	ctx := context.Background()

	newSession := func(name string) error {
		cfg, err := loadgen.SessionConfig(name, users, domain, cohorts, 0.45, 7)
		if err != nil {
			return err
		}
		_, err = c.CreateSession(ctx, cfg)
		return err
	}
	values := func() []int {
		v := make([]int, users)
		for i := range v {
			v[i] = rng.Intn(domain)
		}
		return v
	}
	counts := func() []int {
		cs := make([]int, domain)
		left := users
		for v := 0; v < domain-1; v++ {
			n := rng.Intn(left + 1)
			cs[v] = n
			left -= n
		}
		cs[domain-1] = left
		return cs
	}
	ndjsonBody := func(key string, steps int, gen func() []int) []byte {
		var buf bytes.Buffer
		for j := 0; j < steps; j++ {
			buf.Write(encodeStepJSON(key, gen(), 0.1))
			buf.WriteByte('\n')
		}
		return buf.Bytes()
	}
	// Steps landed per session (warmup included), for the sanity check.
	landed := map[string]int{}

	doc := apiBenchFile{
		Benchmark: "api", Users: users, Domain: domain, Cohorts: cohorts,
		Note: "warmed, bounded-time windows; pre-encoded bodies over real TCP; identical accounting per step in every mode; allocs/step is process-wide (client+server); counts(+minimal) is the recommended at-scale wire shape",
	}

	// --- v2: NDJSON batches of per-user values ---
	if err := newSession("bench-v2v"); err != nil {
		return err
	}
	vBatch := 48 // a values batch is ~10 MB; keep bodies modest
	vBodies := [][]byte{ndjsonBody("values", vBatch, values)}
	vPost, err := newPoster(hc, base+"/v2/sessions/bench-v2v/steps", "application/x-ndjson", false)
	if err != nil {
		return err
	}
	res, err := runTimed(minWindow, []int{vBatch}, func(i int) error {
		landed["bench-v2v"] += vBatch
		return vPost.post(vBodies[i])
	})
	if err != nil {
		return fmt.Errorf("v2 values batch: %w", err)
	}
	p2 := res.point("v2-ndjson-values", len(vBodies[0])/vBatch)
	doc.Points = append(doc.Points, p2)

	// --- v2: NDJSON batches of pre-aggregated counts (full echo) ---
	if err := newSession("bench-v2c"); err != nil {
		return err
	}
	cBodies := make([][]byte, 4)
	cSteps := make([]int, len(cBodies))
	for i := range cBodies {
		cBodies[i] = ndjsonBody("counts", batch, counts)
		cSteps[i] = batch
	}
	cPost, err := newPoster(hc, base+"/v2/sessions/bench-v2c/steps", "application/x-ndjson", false)
	if err != nil {
		return err
	}
	res, err = runTimed(minWindow, cSteps, func(i int) error {
		landed["bench-v2c"] += batch
		return cPost.post(cBodies[i])
	})
	if err != nil {
		return fmt.Errorf("v2 counts batch: %w", err)
	}
	p3 := res.point("v2-ndjson-counts", len(cBodies[0])/batch)
	doc.Points = append(doc.Points, p3)

	// --- v2 counts with Prefer: return=minimal (batch ack only) ---
	if err := newSession("bench-v2m"); err != nil {
		return err
	}
	mPost, err := newPoster(hc, base+"/v2/sessions/bench-v2m/steps", "application/x-ndjson", true)
	if err != nil {
		return err
	}
	res, err = runTimed(minWindow, cSteps, func(i int) error {
		landed["bench-v2m"] += batch
		return mPost.post(cBodies[i])
	})
	if err != nil {
		return fmt.Errorf("v2 counts minimal batch: %w", err)
	}
	pm := res.point("v2-ndjson-counts-minimal", len(cBodies[0])/batch)
	doc.Points = append(doc.Points, pm)

	// --- v2 counts-minimal with the decision-log plugin attached ---
	// The management-plane overhead row: the same wire shape as
	// counts-minimal, but every batch's accounting decision flows
	// through the non-blocking sink into a gzip spool (batch 256). The
	// perf gate keeps this within noise of the undecorated row.
	if err := newSession("bench-v2d"); err != nil {
		return err
	}
	spoolDir, err := os.MkdirTemp("", "tplbench-declog")
	if err != nil {
		return err
	}
	defer os.RemoveAll(spoolDir)
	lp, err := logs.NewPlugin(logs.Config{SpoolPath: spoolDir + "/decisions.gz", Batch: 256, Buffer: 8192})
	if err != nil {
		return err
	}
	logsMgr := manager.New()
	if err := logsMgr.Register(lp); err != nil {
		return err
	}
	if err := logsMgr.Start(ctx); err != nil {
		return err
	}
	api.Registry().SetDecisionSink(lp)
	dPost, err := newPoster(hc, base+"/v2/sessions/bench-v2d/steps", "application/x-ndjson", true)
	if err != nil {
		return err
	}
	res, err = runTimed(minWindow, cSteps, func(i int) error {
		landed["bench-v2d"] += batch
		return dPost.post(cBodies[i])
	})
	api.Registry().SetDecisionSink(nil)
	logsMgr.Stop(ctx)
	if err != nil {
		return fmt.Errorf("v2 counts declog batch: %w", err)
	}
	pd := res.point("v2-ndjson-counts-declog-minimal", len(cBodies[0])/batch)
	doc.Points = append(doc.Points, pd)

	// --- v2 counts at the at-scale batch size (1024 steps/request,
	// minimal response): the headline ingest-rate number. At batch 96
	// the per-request TCP+client round trip (~175µs in-process-client
	// terms) is the dominant cost; 1024-step batches amortize it away.
	if err := newSession("bench-v2b"); err != nil {
		return err
	}
	bigBatch := 1024
	bBodies := [][]byte{ndjsonBody("counts", bigBatch, counts), ndjsonBody("counts", bigBatch, counts)}
	bSteps := []int{bigBatch, bigBatch}
	bPost, err := newPoster(hc, base+"/v2/sessions/bench-v2b/steps", "application/x-ndjson", true)
	if err != nil {
		return err
	}
	res, err = runTimed(minWindow, bSteps, func(i int) error {
		landed["bench-v2b"] += bigBatch
		return bPost.post(bBodies[i])
	})
	if err != nil {
		return fmt.Errorf("v2 counts big batch: %w", err)
	}
	pb := res.point("v2-ndjson-counts-b1024-minimal", len(bBodies[0])/bigBatch)
	doc.Points = append(doc.Points, pb)

	// --- contended: aggregate counts ingest across concurrent sessions ---
	contended, err := runContended(hc, c, base, newSession, cBodies, batch, contendedWriters, minWindow, landed)
	if err != nil {
		return err
	}
	doc.Points = append(doc.Points, contended.point("v2-ndjson-counts-contended", len(cBodies[0])/batch))
	doc.Points[len(doc.Points)-1].Writers = contendedWriters

	// --- cluster-N: weak-scaling ingest across isolated durable shards ---
	clusterPts, err := runClusterBench(hc, cBodies, batch, users, domain, cohorts, minWindow)
	if err != nil {
		return err
	}
	doc.Points = append(doc.Points, clusterPts...)

	// Sanity: every mode really accounted its steps.
	for name, want := range landed {
		sum, err := c.GetSession(ctx, name)
		if err != nil {
			return err
		}
		if sum.T != want {
			return fmt.Errorf("session %s ended at t=%d, want %d", name, sum.T, want)
		}
	}

	if jsonPath != "" {
		blob, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonPath, append(blob, '\n'), 0o644); err != nil {
			return err
		}
	}

	tb := &report.Table{
		Title:  fmt.Sprintf("Wire-API ingest benchmark (%d users, %d cohorts, domain %d)", users, cohorts, domain),
		Header: []string{"mode", "steps", "requests", "writers", "bytes/step", "per step", "steps/s", "allocs/step", "scaling"},
	}
	for _, p := range doc.Points {
		writers := p.Writers
		if writers == 0 {
			writers = 1
		}
		scaling := "-"
		if p.ScalingSpeedup > 0 {
			scaling = fmt.Sprintf("%.2fx", p.ScalingSpeedup)
		}
		tb.AddRow(
			p.Mode,
			strconv.Itoa(p.Steps),
			strconv.Itoa(p.Requests),
			strconv.Itoa(writers),
			strconv.Itoa(p.BytesPerStep),
			time.Duration(p.NsPerStep).Round(time.Microsecond).String(),
			fmt.Sprintf("%.1f", p.StepsPerSec),
			fmt.Sprintf("%.1f", p.AllocsPerStep),
			scaling,
		)
	}
	tb.Notes = append(tb.Notes,
		"values batching removes per-request overhead but still JSON-decodes one integer per user per step; counts removes the transport bottleneck",
		"counts-minimal adds `Prefer: return=minimal` (batch ack instead of the per-step noisy-value echo) — the high-rate ingest contract",
		"allocs/step is a process-wide MemStats delta (client+server share the process): an upper bound on server-side garbage",
		"cluster-N: weak scaling over N isolated durable shards (group-commit journal, one counts writer per shard, direct dial); scaling = aggregate steps/s vs cluster-1",
		"regenerate BENCH_api.json with: go run ./cmd/tplbench -fig api -api-json BENCH_api.json")
	return wr.WriteTable(tb)
}

// runContended measures aggregate counts-mode throughput with one
// writer goroutine per session, all ingesting concurrently against the
// same registry until a shared deadline — the striped-lock contention
// number.
func runContended(hc *http.Client, c *client.Client, base string, newSession func(string) error,
	bodies [][]byte, batch, writers int, minWindow time.Duration, landed map[string]int) (timedResult, error) {
	names := make([]string, writers)
	for i := range names {
		names[i] = fmt.Sprintf("bench-cont-%d", i)
		if err := newSession(names[i]); err != nil {
			return timedResult{}, err
		}
	}
	posters := make(map[string]*poster, writers)
	for _, name := range names {
		p, err := newPoster(hc, base+"/v2/sessions/"+name+"/steps", "application/x-ndjson", true)
		if err != nil {
			return timedResult{}, err
		}
		posters[name] = p
	}
	post := func(name string, body []byte) error {
		return posters[name].post(body)
	}
	// Untimed warmup: one body per writer, concurrently.
	var wg sync.WaitGroup
	warmErr := make(chan error, writers)
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := post(names[i], bodies[0]); err != nil {
				warmErr <- err
			}
		}(i)
	}
	wg.Wait()
	select {
	case err := <-warmErr:
		return timedResult{}, fmt.Errorf("contended warmup: %w", err)
	default:
	}
	for _, name := range names {
		landed[name] += batch
	}

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var steps, requests atomic.Int64
	perWriter := make([]int, writers) // landed steps, merged after the join
	errs := make(chan error, writers)
	start := time.Now()
	deadline := start.Add(minWindow)
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for k := 0; time.Now().Before(deadline); k++ {
				if err := post(names[i], bodies[k%len(bodies)]); err != nil {
					errs <- fmt.Errorf("contended writer %d: %w", i, err)
					return
				}
				perWriter[i] += batch
				steps.Add(int64(batch))
				requests.Add(1)
			}
		}(i)
	}
	wg.Wait()
	for i, n := range perWriter {
		landed[names[i]] += n
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	select {
	case err := <-errs:
		return timedResult{}, err
	default:
	}
	res := timedResult{
		steps:    int(steps.Load()),
		requests: int(requests.Load()),
		elapsed:  elapsed,
	}
	res.allocsPerStep = float64(after.Mallocs-before.Mallocs) / float64(res.steps)
	return res, nil
}
