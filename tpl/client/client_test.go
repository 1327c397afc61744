package client_test

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/markov"
	"repro/internal/report"
	"repro/internal/service"
	"repro/tpl/client"
)

// bytesReader adapts a byte slice for parsers taking io.Reader.
func bytesReader(b []byte) io.Reader { return bytes.NewReader(b) }

// groundTruthTPL computes the expected TPL series straight from the
// core quantifiers.
func groundTruthTPL(t *testing.T, pb *markov.Chain, budgets []float64) []float64 {
	t.Helper()
	series, err := core.TPLSeries(core.NewQuantifier(pb), core.NewQuantifier(nil), budgets)
	if err != nil {
		t.Fatal(err)
	}
	return series
}

// testChain is a small 2-state correlation model.
func testChain() *client.Chain {
	return &client.Chain{Rows: [][]float64{{0.8, 0.2}, {0.3, 0.7}}}
}

// newServerAndClient boots the service handler on a real TCP listener
// (SSE and connection-level failures need one) and a client for it.
func newServerAndClient(t *testing.T, opts ...client.Option) (*httptest.Server, *client.Client) {
	t.Helper()
	srv := httptest.NewServer(service.NewAPI().Handler())
	t.Cleanup(srv.Close)
	c, err := client.New(srv.URL, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return srv, c
}

// mkSession creates a 5-user seeded session with a mixed population.
func mkSession(t *testing.T, c *client.Client, name string) client.Summary {
	t.Helper()
	sum, err := c.CreateSession(context.Background(), client.SessionConfig{
		Name:   name,
		Domain: 2,
		Seed:   77,
		Cohorts: []client.Cohort{
			{Users: 2, Model: client.Model{Backward: testChain(), Forward: testChain()}},
			{Users: 3, Model: client.Model{}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return sum
}

func TestClientRoundTrip(t *testing.T) {
	_, c := newServerAndClient(t)
	ctx := context.Background()

	h, err := c.Health(ctx)
	if err != nil || h.Status != "ok" || h.Version == "" {
		t.Fatalf("health %+v (%v)", h, err)
	}

	sum := mkSession(t, c, "rt")
	if sum.Users != 5 || sum.Cohorts != 2 || sum.Domain != 2 {
		t.Fatalf("summary %+v", sum)
	}

	// Batch: array form, then NDJSON form with a counts step.
	res, err := c.Steps(ctx, "rt", []client.Step{
		{Values: []int{0, 1, 0, 1, 1}, Eps: client.Eps(0.1)},
		{Values: []int{1, 1, 0, 0, 1}, Eps: client.Eps(0.2)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 2 || res.FirstT != 1 || res.LastT != 2 || res.Replayed {
		t.Fatalf("batch %+v", res)
	}
	res, err = c.StepsNDJSON(ctx, "rt", []client.Step{
		{Counts: []int{2, 3}, Eps: client.Eps(0.3)},
	})
	if err != nil || res.FirstT != 3 {
		t.Fatalf("ndjson batch %+v (%v)", res, err)
	}

	// Reads.
	items, err := c.PublishedAll(ctx, "rt")
	if err != nil || len(items) != 3 {
		t.Fatalf("published %d items (%v)", len(items), err)
	}
	if items[2].Eps != 0.3 || len(items[2].Published) != 2 {
		t.Fatalf("item %+v", items[2])
	}
	series, err := c.TPLSeries(ctx, "rt", 0)
	if err != nil || len(series) != 3 {
		t.Fatalf("tpl series %v (%v)", series, err)
	}
	rep, err := c.Report(ctx, "rt")
	if err != nil || rep.T != 3 || rep.EventLevelAlpha <= 0 {
		t.Fatalf("report %+v (%v)", rep, err)
	}
	we, err := c.WEvent(ctx, "rt", 2)
	if err != nil || we.W != 2 || we.Leakage <= 0 {
		t.Fatalf("wevent %+v (%v)", we, err)
	}
	raw, err := c.ReportJSONLines(ctx, "rt")
	if err != nil {
		t.Fatal(err)
	}
	tables, err := report.ParseJSONLines(bytesReader(raw))
	if err != nil || len(tables) == 0 {
		t.Fatalf("jsonl parse: %v (%d tables)", err, len(tables))
	}

	// Listing and deletion.
	list, err := c.ListSessions(ctx)
	if err != nil || len(list) != 1 {
		t.Fatalf("list %v (%v)", list, err)
	}
	if err := c.DeleteSession(ctx, "rt"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.GetSession(ctx, "rt"); !client.IsNotFound(err) {
		t.Fatalf("get after delete: %v", err)
	}
}

func TestClientAPIErrors(t *testing.T) {
	_, c := newServerAndClient(t)
	ctx := context.Background()
	mkSession(t, c, "err")

	if _, err := c.GetSession(ctx, "nope"); !client.IsNotFound(err) {
		t.Fatalf("not found: %v", err)
	}
	if _, err := c.CreateSession(ctx, client.SessionConfig{Name: "err", Domain: 2, Users: 5}); !client.IsExists(err) {
		t.Fatalf("exists: %v", err)
	}
	// Planned steps without a plan: invalid_state.
	_, err := c.Steps(ctx, "err", []client.Step{{Values: []int{0, 0, 0, 0, 0}}})
	if !client.IsInvalidState(err) {
		t.Fatalf("invalid state: %v", err)
	}
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.Status != 409 || ae.Detail == "" {
		t.Fatalf("api error %+v", ae)
	}
	// Exhausting a finite plan: budget_exhausted.
	if _, err := c.CreateSession(ctx, client.SessionConfig{
		Name: "plan", Domain: 2, Users: 2, Seed: 5,
		Models: []client.Model{{Backward: testChain()}, {}},
		Plan:   &client.PlanSpec{Kind: "quantified", Alpha: 1, Horizon: 2, Model: &client.Model{Backward: testChain()}},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Steps(ctx, "plan", []client.Step{
		{Values: []int{0, 1}}, {Values: []int{0, 1}}, {Values: []int{0, 1}},
	}); !client.IsBudgetExhausted(err) {
		t.Fatalf("budget exhausted: %v", err)
	}
	// The failed batch applied nothing.
	if sum, err := c.GetSession(ctx, "plan"); err != nil || sum.T != 0 {
		t.Fatalf("atomicity: %+v (%v)", sum, err)
	}
	// Idempotency conflict.
	if _, err := c.Steps(ctx, "err", []client.Step{{Values: []int{0, 0, 0, 0, 0}, Eps: client.Eps(0.1)}},
		client.WithIdempotencyKey("pin")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Steps(ctx, "err", []client.Step{{Values: []int{1, 1, 1, 1, 1}, Eps: client.Eps(0.1)}},
		client.WithIdempotencyKey("pin")); !client.IsIdempotencyConflict(err) {
		t.Fatalf("conflict: %v", err)
	}
}

func TestClientWatch(t *testing.T) {
	_, c := newServerAndClient(t)
	ctx := context.Background()
	mkSession(t, c, "watch")
	if _, err := c.Steps(ctx, "watch", []client.Step{{Values: []int{0, 1, 0, 1, 1}, Eps: client.Eps(0.1)}}); err != nil {
		t.Fatal(err)
	}

	w, err := c.Watch(ctx, "watch", 0) // replay from the start
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	read := func() client.WatchEvent {
		t.Helper()
		select {
		case ev, ok := <-w.Events():
			if !ok {
				t.Fatalf("stream closed: %v", w.Err())
			}
			return ev
		case <-time.After(5 * time.Second):
			t.Fatal("no frame within 5s")
		}
		panic("unreachable")
	}
	if ev := read(); ev.T != 1 || ev.Eps != 0.1 {
		t.Fatalf("catch-up frame %+v", ev)
	}
	if _, err := c.Steps(ctx, "watch", []client.Step{{Values: []int{1, 0, 1, 0, 0}, Eps: client.Eps(0.2)}}); err != nil {
		t.Fatal(err)
	}
	ev := read()
	if ev.T != 2 || ev.Eps != 0.2 || ev.TPL <= 0 {
		t.Fatalf("live frame %+v", ev)
	}
	w.Close()
	if err := w.Err(); err != nil {
		t.Fatalf("close err: %v", err)
	}
}

func TestBatchWriter(t *testing.T) {
	_, c := newServerAndClient(t)
	ctx := context.Background()
	mkSession(t, c, "bw")

	var flushed []client.BatchResult
	w := c.NewBatchWriter(ctx, "bw",
		client.WithFlushSize(4),
		client.WithFlushInterval(50*time.Millisecond),
		client.WithResultHandler(func(r client.BatchResult) { flushed = append(flushed, r) }))
	for i := 0; i < 9; i++ {
		if err := w.Add(client.Step{Values: []int{0, 1, 0, 1, 1}, Eps: client.Eps(0.1)}); err != nil {
			t.Fatal(err)
		}
		if i == 7 {
			// Let the interval flusher pick up a partial buffer at least
			// once.
			time.Sleep(120 * time.Millisecond)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	sum, err := c.GetSession(ctx, "bw")
	if err != nil || sum.T != 9 {
		t.Fatalf("after writer: t=%d (%v)", sum.T, err)
	}
	total := 0
	for _, r := range flushed {
		total += r.Count
	}
	if total != 9 {
		t.Fatalf("result handler saw %d steps, want 9", total)
	}
	if err := w.Add(client.Step{}); err == nil {
		t.Fatal("Add after Close accepted")
	}
}

// TestBatchShapeParity is the conformance test for batch shapes: an
// identical workload driven one step per request and in mixed-shape
// batches (NDJSON, JSON array, BatchWriter; explicit and plan-drawn
// budgets) must produce bit-identical Reports, TPL series for every
// user, MaxWEvent answers, and published histograms.
func TestBatchShapeParity(t *testing.T) {
	ctx := context.Background()
	cfg := func(name string) client.SessionConfig {
		return client.SessionConfig{
			Name:   name,
			Domain: 2,
			Seed:   424242,
			Cohorts: []client.Cohort{
				{Users: 3, Model: client.Model{Backward: testChain(), Forward: testChain()}},
				{Users: 2, Model: client.Model{}},
			},
			Plan: &client.PlanSpec{Kind: "quantified", Alpha: 1, Horizon: 30,
				Model: &client.Model{Backward: testChain(), Forward: testChain()}},
		}
	}
	const steps = 18
	values := func(i int) []int {
		v := make([]int, 5)
		for u := range v {
			v[u] = (i*7 + u*3) % 2
		}
		return v
	}
	eps := func(i int) *float64 {
		if i%3 == 0 {
			return nil // draw from the plan
		}
		e := 0.1 + 0.05*float64(i%3)
		return &e
	}
	var batch []client.Step
	for i := 1; i <= steps; i++ {
		batch = append(batch, client.Step{Values: values(i), Eps: eps(i)})
	}

	// Reference: one single-step request per step.
	_, c1 := newServerAndClient(t)
	if _, err := c1.CreateSession(ctx, cfg("parity")); err != nil {
		t.Fatal(err)
	}
	for i, st := range batch {
		if _, err := c1.Steps(ctx, "parity", []client.Step{st}); err != nil {
			t.Fatalf("single step %d: %v", i+1, err)
		}
	}

	// The same steps in mixed-shape batches.
	_, c2 := newServerAndClient(t)
	if _, err := c2.CreateSession(ctx, cfg("parity")); err != nil {
		t.Fatal(err)
	}
	// First third over NDJSON, second third as an array, final third via
	// the BatchWriter.
	third := steps / 3
	if _, err := c2.StepsNDJSON(ctx, "parity", batch[:third]); err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Steps(ctx, "parity", batch[third:2*third]); err != nil {
		t.Fatal(err)
	}
	w := c2.NewBatchWriter(ctx, "parity", client.WithFlushSize(4), client.WithFlushInterval(0))
	for _, st := range batch[2*third:] {
		if err := w.Add(st); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Bit-identical accounting across the two ingestion shapes.
	rep1, err := c1.Report(ctx, "parity")
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := c2.Report(ctx, "parity")
	if err != nil {
		t.Fatal(err)
	}
	if rep1 != rep2 {
		t.Fatalf("reports diverge:\n  single %+v\n  batched %+v", rep1, rep2)
	}
	for u := 0; u < 5; u++ {
		s1, err := c1.TPLSeries(ctx, "parity", u)
		if err != nil {
			t.Fatal(err)
		}
		s2, err := c2.TPLSeries(ctx, "parity", u)
		if err != nil {
			t.Fatal(err)
		}
		if len(s1) != steps || len(s2) != steps {
			t.Fatalf("user %d: series lengths %d/%d", u, len(s1), len(s2))
		}
		for i := range s1 {
			if s1[i] != s2[i] {
				t.Fatalf("user %d TPL[%d]: single %v != batched %v", u, i, s1[i], s2[i])
			}
		}
	}
	w1, err := c1.WEvent(ctx, "parity", 3)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := c2.WEvent(ctx, "parity", 3)
	if err != nil {
		t.Fatal(err)
	}
	if w1 != w2 {
		t.Fatalf("wevent diverges: single %+v, batched %+v", w1, w2)
	}
	h1, err := c1.PublishedAll(ctx, "parity")
	if err != nil {
		t.Fatal(err)
	}
	h2, err := c2.PublishedAll(ctx, "parity")
	if err != nil {
		t.Fatal(err)
	}
	if len(h1) != steps || len(h2) != steps {
		t.Fatalf("history lengths %d/%d", len(h1), len(h2))
	}
	for i := range h2 {
		if h1[i].T != h2[i].T || h1[i].Eps != h2[i].Eps || len(h1[i].Published) != len(h2[i].Published) {
			t.Fatalf("history item %d diverges: single %+v, batched %+v", i, h1[i], h2[i])
		}
		for j := range h2[i].Published {
			if h1[i].Published[j] != h2[i].Published[j] {
				t.Fatalf("published[%d][%d]: single %v != batched %v", i, j, h1[i].Published[j], h2[i].Published[j])
			}
		}
	}
}

// TestParityMatchesStream cross-checks the wire parity against the
// in-process stream.Server ground truth for one deterministic chain
// (guards against both APIs drifting together).
func TestParityMatchesStream(t *testing.T) {
	ctx := context.Background()
	_, c := newServerAndClient(t)
	if _, err := c.CreateSession(ctx, client.SessionConfig{
		Name: "truth", Domain: 2, Users: 1, Seed: 9,
		Models: []client.Model{{Backward: testChain()}},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Steps(ctx, "truth", []client.Step{
		{Values: []int{0}, Eps: client.Eps(0.1)},
		{Values: []int{1}, Eps: client.Eps(0.1)},
	}); err != nil {
		t.Fatal(err)
	}
	series, err := c.TPLSeries(ctx, "truth", 0)
	if err != nil {
		t.Fatal(err)
	}
	chain, err := markov.FromRows(testChain().Rows)
	if err != nil {
		t.Fatal(err)
	}
	want := groundTruthTPL(t, chain, []float64{0.1, 0.1})
	if len(series) != len(want) {
		t.Fatalf("series %v, want %v", series, want)
	}
	for i := range want {
		if series[i] != want[i] {
			t.Fatalf("TPL[%d] = %v, want %v", i, series[i], want[i])
		}
	}
}
