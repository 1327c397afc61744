package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// v2Session creates a small session over the handler and returns its
// name.
func v2Session(t *testing.T, h http.Handler, name string) string {
	t.Helper()
	body := fmt.Sprintf(`{"name":%q,"domain":2,"seed":11,"cohorts":[{"users":2,"model":%s},{"users":3,"model":{}}]}`,
		name, fig7ModelJSON(t))
	rec := doJSON(t, h, "POST", "/v2/sessions", body, nil)
	if rec.Code != http.StatusCreated {
		t.Fatalf("create: %d %s", rec.Code, rec.Body.String())
	}
	return name
}

// batchBody renders a JSON-array steps body of n identical steps.
func batchBody(n int, eps float64) string {
	var sb strings.Builder
	sb.WriteString("[")
	for i := 0; i < n; i++ {
		if i > 0 {
			sb.WriteString(",")
		}
		fmt.Fprintf(&sb, `{"values":[0,1,0,1,1],"eps":%g}`, eps)
	}
	sb.WriteString("]")
	return sb.String()
}

func TestV2ProblemJSON(t *testing.T) {
	h := NewAPI().Handler()
	v2Session(t, h, "p1")
	if rec := doJSON(t, h, "POST", "/v2/sessions/p1/steps", batchBody(2, 0.1), nil); rec.Code != http.StatusOK {
		t.Fatalf("seed steps: %d %s", rec.Code, rec.Body.String())
	}

	tests := []struct {
		name   string
		method string
		target string
		body   string
		status int
		code   string
	}{
		{"session not found", "GET", "/v2/sessions/nope", "", 404, CodeSessionNotFound},
		{"delete not found", "DELETE", "/v2/sessions/nope", "", 404, CodeSessionNotFound},
		{"session exists", "POST", "/v2/sessions", `{"name":"p1","domain":2,"users":5}`, 409, CodeSessionExists},
		{"bad config", "POST", "/v2/sessions", `{"name":"x","domain":2}`, 400, CodeInvalidRequest},
		{"no plan", "POST", "/v2/sessions/p1/steps", `[{"values":[0,1,0,1,1]}]`, 409, CodeInvalidState},
		{"empty batch", "POST", "/v2/sessions/p1/steps", `[]`, 400, CodeInvalidRequest},
		{"bad step shape", "POST", "/v2/sessions/p1/steps", `[{"values":[0],"eps":0.1}]`, 400, CodeInvalidRequest},
		{"unknown field", "POST", "/v2/sessions/p1/steps", `[{"vals":[0,1,0,1,1],"eps":0.1}]`, 400, CodeInvalidRequest},
		{"bad format", "GET", "/v2/sessions/p1/report?format=xml", "", 400, CodeUnsupportedFormat},
		{"snapshot in ephemeral mode", "POST", "/v2/sessions/p1/snapshot", "", 409, CodeSnapshotUnavailable},
		{"bad cursor", "GET", "/v2/sessions/p1/published?cursor=%21%21", "", 400, CodeInvalidRequest},
		{"bad limit", "GET", "/v2/sessions/p1/published?limit=-3", "", 400, CodeInvalidRequest},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			var p Problem
			rec := doJSON(t, h, tc.method, tc.target, tc.body, &p)
			if rec.Code != tc.status {
				t.Fatalf("%s %s: status %d, want %d (body %s)", tc.method, tc.target, rec.Code, tc.status, rec.Body.String())
			}
			if ct := rec.Header().Get("Content-Type"); ct != problemContentType {
				t.Fatalf("content type %q", ct)
			}
			if p.Code != tc.code || p.Status != tc.status || p.Title == "" || p.Detail == "" {
				t.Fatalf("problem %+v, want code %q", p, tc.code)
			}
			var members map[string]json.RawMessage
			if err := json.Unmarshal(rec.Body.Bytes(), &members); err != nil {
				t.Fatal(err)
			}
			if _, ok := members["error"]; ok {
				t.Fatalf("problem body carries an %q member: %s", "error", rec.Body.String())
			}
			if tc.code == CodeUnsupportedFormat && len(p.Supported) == 0 {
				t.Fatalf("unsupported_format problem lists no supported formats: %+v", p)
			}
		})
	}
}

func TestV2BatchIngestArrayAndNDJSON(t *testing.T) {
	h := NewAPI().Handler()
	v2Session(t, h, "b1")

	// JSON array.
	var resp batchResponse
	rec := doJSON(t, h, "POST", "/v2/sessions/b1/steps", batchBody(3, 0.1), &resp)
	if rec.Code != http.StatusOK {
		t.Fatalf("array batch: %d %s", rec.Code, rec.Body.String())
	}
	if resp.Count != 3 || resp.FirstT != 1 || resp.LastT != 3 || len(resp.Results) != 3 {
		t.Fatalf("batch response %+v", resp)
	}
	for i, r := range resp.Results {
		if r.T != i+1 || r.Eps != 0.1 || r.Planned || len(r.Published) != 2 {
			t.Fatalf("result %d: %+v", i, r)
		}
	}

	// NDJSON, mixing values and counts shapes.
	nd := `{"values":[0,1,0,1,1],"eps":0.2}
{"counts":[2,3],"eps":0.3}
`
	req := httptest.NewRequest("POST", "/v2/sessions/b1/steps", strings.NewReader(nd))
	req.Header.Set("Content-Type", "application/x-ndjson")
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	if rr.Code != http.StatusOK {
		t.Fatalf("ndjson batch: %d %s", rr.Code, rr.Body.String())
	}
	var nresp batchResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &nresp); err != nil {
		t.Fatal(err)
	}
	if nresp.Count != 2 || nresp.FirstT != 4 || nresp.LastT != 5 {
		t.Fatalf("ndjson response %+v", nresp)
	}
	if nresp.Results[0].Eps != 0.2 || nresp.Results[1].Eps != 0.3 {
		t.Fatalf("ndjson budgets %+v", nresp.Results)
	}

	// Atomicity over the wire: a bad step in the middle applies nothing.
	bad := `[{"values":[0,1,0,1,1],"eps":0.1},{"values":[0,1,0,1,1],"eps":-5}]`
	if rec := doJSON(t, h, "POST", "/v2/sessions/b1/steps", bad, nil); rec.Code != http.StatusBadRequest {
		t.Fatalf("bad batch status %d", rec.Code)
	}
	var sum Summary
	doJSON(t, h, "GET", "/v2/sessions/b1", "", &sum)
	if sum.T != 5 {
		t.Fatalf("rejected batch advanced t to %d, want 5", sum.T)
	}
}

func TestV2Pagination(t *testing.T) {
	api := NewAPI()
	h := api.Handler()
	v2Session(t, h, "pg")
	if rec := doJSON(t, h, "POST", "/v2/sessions/pg/steps", batchBody(7, 0.1), nil); rec.Code != http.StatusOK {
		t.Fatalf("steps: %d", rec.Code)
	}

	type page struct {
		T          int             `json:"t"`
		Items      []publishedItem `json:"items"`
		NextCursor string          `json:"next_cursor"`
	}
	var all []publishedItem
	cursor := ""
	pages := 0
	for {
		target := "/v2/sessions/pg/published?limit=3"
		if cursor != "" {
			target += "&cursor=" + cursor
		}
		var p page
		if rec := doJSON(t, h, "GET", target, "", &p); rec.Code != http.StatusOK {
			t.Fatalf("page: %d %s", rec.Code, rec.Body.String())
		}
		all = append(all, p.Items...)
		pages++
		if p.NextCursor == "" {
			break
		}
		cursor = p.NextCursor
	}
	if pages != 3 || len(all) != 7 {
		t.Fatalf("%d pages, %d items", pages, len(all))
	}
	for i, it := range all {
		if it.T != i+1 || it.Eps != 0.1 || len(it.Published) != 2 {
			t.Fatalf("item %d: %+v", i, it)
		}
	}

	// TPL pagination agrees with the server's full series.
	sess, err := api.Registry().Get("pg")
	if err != nil {
		t.Fatal(err)
	}
	full, err := sess.Server().UserTPLSeries(0)
	if err != nil {
		t.Fatal(err)
	}
	type tplPage struct {
		Items      []tplItem `json:"items"`
		NextCursor string    `json:"next_cursor"`
	}
	var series []tplItem
	cursor = ""
	for {
		target := "/v2/sessions/pg/tpl?user=0&limit=2"
		if cursor != "" {
			target += "&cursor=" + cursor
		}
		var p tplPage
		if rec := doJSON(t, h, "GET", target, "", &p); rec.Code != http.StatusOK {
			t.Fatalf("tpl page: %d %s", rec.Code, rec.Body.String())
		}
		series = append(series, p.Items...)
		if p.NextCursor == "" {
			break
		}
		cursor = p.NextCursor
	}
	if len(series) != len(full) {
		t.Fatalf("paged %d items, full series %d", len(series), len(full))
	}
	for i, it := range series {
		if it.T != i+1 || it.TPL != full[i] {
			t.Fatalf("tpl item %d: %+v, want %v", i, it, full[i])
		}
	}

	// Past-the-end page: empty, no cursor, but bad users still rejected.
	var p tplPage
	doJSON(t, h, "GET", "/v2/sessions/pg/tpl?user=0&cursor="+encodeCursor(8), "", &p)
	if len(p.Items) != 0 || p.NextCursor != "" {
		t.Fatalf("past-end page %+v", p)
	}
	if rec := doJSON(t, h, "GET", "/v2/sessions/pg/tpl?user=99&cursor="+encodeCursor(8), "", nil); rec.Code != http.StatusBadRequest {
		t.Fatalf("bad user on empty page: %d", rec.Code)
	}
}

// postKeyed sends a batch with an Idempotency-Key.
func postKeyed(t *testing.T, h http.Handler, target, key, body string) (*httptest.ResponseRecorder, batchResponse) {
	t.Helper()
	req := httptest.NewRequest("POST", target, strings.NewReader(body))
	req.Header.Set("Idempotency-Key", key)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var resp batchResponse
	if rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
	}
	return rec, resp
}

func TestV2IdempotentRetry(t *testing.T) {
	h := NewAPI().Handler()
	v2Session(t, h, "idem")

	body := batchBody(3, 0.1)
	rec1, resp1 := postKeyed(t, h, "/v2/sessions/idem/steps", "key-A", body)
	if rec1.Code != http.StatusOK || resp1.Replayed {
		t.Fatalf("first: %d %+v", rec1.Code, resp1)
	}

	// Retry: replayed, bit-identical body, header set, no new steps.
	rec2, resp2 := postKeyed(t, h, "/v2/sessions/idem/steps", "key-A", body)
	if rec2.Code != http.StatusOK || !resp2.Replayed {
		t.Fatalf("retry: %d %+v", rec2.Code, resp2)
	}
	if rec2.Header().Get("Idempotency-Replayed") != "true" {
		t.Fatal("missing Idempotency-Replayed header")
	}
	if resp2.FirstT != resp1.FirstT || resp2.LastT != resp1.LastT {
		t.Fatalf("replayed span %+v != original %+v", resp2, resp1)
	}
	for i := range resp1.Results {
		a, b := resp1.Results[i], resp2.Results[i]
		if a.T != b.T || a.Eps != b.Eps || !bytes.Equal(mustJSON(t, a.Published), mustJSON(t, b.Published)) {
			t.Fatalf("replayed result %d differs: %+v vs %+v", i, a, b)
		}
	}
	var sum Summary
	doJSON(t, h, "GET", "/v2/sessions/idem", "", &sum)
	if sum.T != 3 {
		t.Fatalf("retry advanced t to %d, want 3", sum.T)
	}

	// Same key, different body: conflict.
	rec3, _ := postKeyed(t, h, "/v2/sessions/idem/steps", "key-A", batchBody(2, 0.2))
	if rec3.Code != http.StatusUnprocessableEntity {
		t.Fatalf("conflict: %d %s", rec3.Code, rec3.Body.String())
	}
	var p Problem
	if err := json.Unmarshal(rec3.Body.Bytes(), &p); err != nil || p.Code != CodeIdempotencyConflict {
		t.Fatalf("conflict problem %+v (%v)", p, err)
	}

	// A fresh key applies fresh steps.
	rec4, resp4 := postKeyed(t, h, "/v2/sessions/idem/steps", "key-B", batchBody(1, 0.2))
	if rec4.Code != http.StatusOK || resp4.Replayed || resp4.FirstT != 4 {
		t.Fatalf("fresh key: %d %+v", rec4.Code, resp4)
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestIdemCacheEviction fills the per-session LRU past its capacity:
// the oldest key degrades to at-most-once (applied again), recent keys
// still replay.
func TestIdemCacheEviction(t *testing.T) {
	h := NewAPI().Handler()
	v2Session(t, h, "evict")
	body := batchBody(1, 0.1)
	for i := 0; i <= idemCacheSize; i++ { // key-0 .. key-N fills one past capacity
		rec, resp := postKeyed(t, h, "/v2/sessions/evict/steps", fmt.Sprintf("key-%d", i), body)
		if rec.Code != http.StatusOK || resp.Replayed {
			t.Fatalf("key-%d: %d %+v", i, rec.Code, resp)
		}
	}
	// key-0 was evicted: the batch is applied anew, not replayed.
	rec, resp := postKeyed(t, h, "/v2/sessions/evict/steps", "key-0", body)
	if rec.Code != http.StatusOK || resp.Replayed {
		t.Fatalf("evicted key replayed: %+v", resp)
	}
	// key-1 survived (it was not the LRU victim after key-0's reinsert).
	rec, resp = postKeyed(t, h, "/v2/sessions/evict/steps", fmt.Sprintf("key-%d", idemCacheSize), body)
	if rec.Code != http.StatusOK || !resp.Replayed {
		t.Fatalf("recent key not replayed: %+v", resp)
	}
}

// TestIdempotencySurvivesRestart drives keyed batches into a durable
// registry, restarts it (snapshot + journal replay), and retries the
// same keys: the restored process must replay, not re-apply.
func TestIdempotencySurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	reg1 := durableRegistry(t, dir, 64)
	h1 := (&API{reg: reg1, started: reg1.now()}).Handler()
	v2Session(t, h1, "dur")
	body := batchBody(3, 0.1)
	rec, resp := postKeyed(t, h1, "/v2/sessions/dur/steps", "boot-key", body)
	if rec.Code != http.StatusOK || resp.Replayed {
		t.Fatalf("first: %d %+v", rec.Code, resp)
	}
	// A second keyed batch that only reaches the journal (no snapshot
	// coalescing yet at snapshotEvery=64).
	rec, resp2 := postKeyed(t, h1, "/v2/sessions/dur/steps", "tail-key", batchBody(2, 0.2))
	if rec.Code != http.StatusOK || resp2.Replayed {
		t.Fatalf("second: %d %+v", rec.Code, resp2)
	}
	// No graceful Close: restart from whatever is on disk.
	reg2 := durableRegistry(t, dir, 64)
	restored, failed := reg2.RestoreAll()
	if len(failed) > 0 || len(restored) != 1 {
		t.Fatalf("restore: %v / %v", restored, failed)
	}
	h2 := (&API{reg: reg2, started: reg2.now()}).Handler()
	for _, tc := range []struct {
		key, body string
		firstT    int
	}{{"boot-key", body, 1}, {"tail-key", batchBody(2, 0.2), 4}} {
		rec, resp := postKeyed(t, h2, "/v2/sessions/dur/steps", tc.key, tc.body)
		if rec.Code != http.StatusOK || !resp.Replayed || resp.FirstT != tc.firstT {
			t.Fatalf("restored retry %q: %d %+v", tc.key, rec.Code, resp)
		}
	}
	var sum Summary
	doJSON(t, h2, "GET", "/v2/sessions/dur", "", &sum)
	if sum.T != 5 {
		t.Fatalf("restored t = %d, want 5 (retries must not re-apply)", sum.T)
	}
}

// TestV2Watch subscribes over a real TCP server (SSE needs flushing),
// lands a batch, and checks the pushed frames.
func TestV2Watch(t *testing.T) {
	api := NewAPI()
	h := api.Handler()
	srv := httptest.NewServer(h)
	defer srv.Close()
	v2Session(t, h, "live")
	if rec := doJSON(t, h, "POST", "/v2/sessions/live/steps", batchBody(2, 0.1), nil); rec.Code != http.StatusOK {
		t.Fatalf("pre-steps: %d", rec.Code)
	}

	// Watch from the beginning: catch-up frames for steps 1-2, then live.
	req, err := http.NewRequest("GET", srv.URL+"/v2/sessions/live/watch?from=0", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.HasPrefix(resp.Header.Get("Content-Type"), "text/event-stream") {
		t.Fatalf("watch: %d %q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}

	frames := make(chan watchEvent, 16)
	go func() {
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			line := sc.Text()
			if data, ok := strings.CutPrefix(line, "data: "); ok {
				var ev watchEvent
				if json.Unmarshal([]byte(data), &ev) == nil {
					frames <- ev
				}
			}
		}
		close(frames)
	}()

	read := func() watchEvent {
		t.Helper()
		select {
		case ev, ok := <-frames:
			if !ok {
				t.Fatal("stream closed early")
			}
			return ev
		case <-time.After(5 * time.Second):
			t.Fatal("no frame within 5s")
		}
		panic("unreachable")
	}
	for want := 1; want <= 2; want++ {
		ev := read()
		if ev.T != want || ev.Eps != 0.1 || ev.TPL <= 0 {
			t.Fatalf("catch-up frame %+v, want t=%d", ev, want)
		}
	}
	// A live step shows up as a pushed frame with the leakage digest.
	if rec := doJSON(t, h, "POST", "/v2/sessions/live/steps", batchBody(1, 0.3), nil); rec.Code != http.StatusOK {
		t.Fatalf("live step: %d", rec.Code)
	}
	ev := read()
	if ev.T != 3 || ev.Eps != 0.3 {
		t.Fatalf("live frame %+v", ev)
	}
	if diff := ev.BPL + ev.FPL - ev.Eps - ev.TPL; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("frame %+v violates TPL = BPL+FPL-eps", ev)
	}
}

// retiredPrefix is the path prefix of the removed one-step-per-request
// API; nothing may answer under it any more.
const retiredPrefix = "/v1"

// TestV1RoutesGone checks that the retired API is not served: its paths
// fall through to the mux's 404 and touch no session.
func TestV1RoutesGone(t *testing.T) {
	api := NewAPI()
	h := api.Handler()
	v2Session(t, h, "gone")
	for _, tc := range []struct{ method, target, body string }{
		{"GET", retiredPrefix + "/sessions", ""},
		{"POST", retiredPrefix + "/sessions", `{"name":"x","domain":2,"users":1}`},
		{"GET", retiredPrefix + "/sessions/gone", ""},
		{"POST", retiredPrefix + "/sessions/gone/steps", `{"values":[0,1,0,1,1],"eps":0.1}`},
	} {
		if rec := doJSON(t, h, tc.method, tc.target, tc.body, nil); rec.Code != http.StatusNotFound {
			t.Fatalf("%s %s: status %d, want 404", tc.method, tc.target, rec.Code)
		}
	}
	s, err := api.Registry().Get("gone")
	if err != nil {
		t.Fatal(err)
	}
	if n, T := api.Registry().Len(), s.Server().T(); n != 1 || T != 0 {
		t.Fatalf("retired routes changed state: %d sessions, t=%d", n, T)
	}
}
