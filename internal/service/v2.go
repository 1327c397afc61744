package service

import (
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/stream"
)

// The v2 wire contract (see DESIGN.md §7): batched step ingestion (a
// JSON array or an NDJSON stream), idempotency keys for safe retries,
// cursor pagination on the release history and TPL series, problem+json
// errors everywhere, and an SSE watch stream for live leakage.

// maxBatchSteps bounds one ingestion request. 4096 steps of the
// largest domain is within the body ceiling; anything bigger should be
// split — the client SDK's BatchWriter does this automatically.
const maxBatchSteps = 4096

// maxIdemKeyLen bounds the Idempotency-Key header (the key is stored
// per batch in the journal and snapshots).
const maxIdemKeyLen = 256

// Pagination bounds: a page defaults to defaultPageLimit items and is
// clamped to maxPageLimit (a published-history item carries a whole
// domain-sized histogram).
const (
	defaultPageLimit = 100
	maxPageLimit     = 500
)

// wireStep is one element of a v2 steps request: values or counts,
// with an optional explicit budget (absent = draw from the plan).
type wireStep struct {
	Values []int    `json:"values,omitempty"`
	Counts []int    `json:"counts,omitempty"`
	Eps    *float64 `json:"eps,omitempty"`
}

// batchResponse is the v2 steps response.
type batchResponse struct {
	Results  []stepResponse `json:"results"`
	Count    int            `json:"count"`
	FirstT   int            `json:"first_t"`
	LastT    int            `json:"last_t"`
	Replayed bool           `json:"replayed,omitempty"`
}

// readBatch decodes a v2 steps body: an NDJSON stream when the request
// says so (one step object per line — the high-throughput shape), a
// JSON array otherwise. Unknown fields and trailing garbage are
// rejected; the batch size is bounded.
//
// NDJSON bodies decode into the request's arena (arena.go): the body
// buffer, the step slice, and every decoded int array come from
// pooled slabs, so the steady-state hot path allocates nothing. Lines
// matching the plain step shape take a hand-rolled scanner
// (fastpath.go) an order of magnitude faster than reflective
// decoding; the first unrecognized line drops the remainder of the
// body to the strict encoding/json path, so accepted inputs and error
// behavior are identical either way.
func readBatch(w http.ResponseWriter, r *http.Request, a *batchArena) ([]stream.BatchStep, error) {
	ct := r.Header.Get("Content-Type")
	mt, _, _ := mime.ParseMediaType(ct)
	var steps []stream.BatchStep
	if mt == ndjsonContentType {
		body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
		// One read, zero-copy line slicing: per-line buffered reads would
		// memmove every 100k-value line twice.
		raw, err := a.readBody(body, r.ContentLength)
		if err != nil {
			return nil, fmt.Errorf("service: reading NDJSON body: %w", err)
		}
		return a.decodeNDJSONArena(raw)
	}
	var wire []wireStep
	if err := decodeBody(w, r, &wire); err != nil {
		return nil, err
	}
	if len(wire) > maxBatchSteps {
		return nil, fmt.Errorf("service: batch exceeds %d steps", maxBatchSteps)
	}
	steps = make([]stream.BatchStep, len(wire))
	for i, ws := range wire {
		steps[i] = stream.BatchStep(ws)
	}
	if len(steps) == 0 {
		return nil, fmt.Errorf("service: empty batch")
	}
	return steps, nil
}

// decodeNDJSONSlow is the strict NDJSON decoder the fast path falls
// back to: a stream of concatenated JSON step objects with unknown
// fields rejected.
func decodeNDJSONSlow(r io.Reader, steps *[]stream.BatchStep) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	for {
		var ws wireStep
		if err := dec.Decode(&ws); err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return fmt.Errorf("service: decoding NDJSON step %d: %w", len(*steps)+1, err)
		}
		if len(*steps) >= maxBatchSteps {
			return fmt.Errorf("service: batch exceeds %d steps", maxBatchSteps)
		}
		*steps = append(*steps, stream.BatchStep(ws))
	}
}

// postSteps ingests a batch of steps, deduplicated by the optional
// Idempotency-Key header. The batch is atomic: it lands whole or not
// at all, so a retry after any failure is safe when keyed.
func (a *API) postSteps(w http.ResponseWriter, r *http.Request) {
	s, ok := a.session(w, r)
	if !ok {
		return
	}
	key := r.Header.Get("Idempotency-Key")
	if len(key) > maxIdemKeyLen {
		writeError(w, fmt.Errorf("service: Idempotency-Key longer than %d bytes", maxIdemKeyLen))
		return
	}
	// The arena owns every slab this request decodes into and encodes
	// out of; CollectBatch borrows the steps only for the duration of
	// the call, so releasing after the response is written is safe.
	arena := getArena()
	defer arena.release()
	steps, err := readBatch(w, r, arena)
	if err != nil {
		writeError(w, err)
		return
	}
	results, replayed, err := s.CollectBatch(key, steps)
	if err != nil {
		writeError(w, err)
		return
	}
	if replayed {
		w.Header().Set("Idempotency-Replayed", "true")
	}
	// Hand-rolled encoding (byte-identical to writeJSON on a
	// batchResponse — encode_test.go holds the equivalence): the
	// reflective encoder was ~a quarter of the ingest hot path.
	// Prefer: return=minimal (RFC 7240) skips the per-step echo
	// entirely — the high-rate ingest shape.
	var body []byte
	if preferReturnMinimal(r.Header) {
		w.Header().Set("Preference-Applied", "return=minimal")
		body = arena.encodeMinimalBatchResponse(results, replayed)
	} else {
		body = arena.encodeBatchResponse(results, replayed)
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

// preferReturnMinimal reports whether the request opted into the
// minimal batch acknowledgement via an RFC 7240 Prefer header.
func preferReturnMinimal(h http.Header) bool {
	for _, v := range h.Values("Prefer") {
		for _, tok := range strings.Split(v, ",") {
			if strings.EqualFold(strings.TrimSpace(tok), "return=minimal") {
				return true
			}
		}
	}
	return false
}

// encodeCursor renders an opaque pagination cursor for "resume at step
// next".
func encodeCursor(next int) string {
	return base64.RawURLEncoding.EncodeToString([]byte("t:" + strconv.Itoa(next)))
}

// decodeCursor parses a cursor back into a 1-based step index.
func decodeCursor(s string) (int, error) {
	raw, err := base64.RawURLEncoding.DecodeString(s)
	if err != nil {
		return 0, fmt.Errorf("service: malformed cursor")
	}
	rest, ok := strings.CutPrefix(string(raw), "t:")
	if !ok {
		return 0, fmt.Errorf("service: malformed cursor")
	}
	n, err := strconv.Atoi(rest)
	if err != nil || n < 1 {
		return 0, fmt.Errorf("service: malformed cursor")
	}
	return n, nil
}

// pageParams parses ?cursor= and ?limit=.
func pageParams(r *http.Request) (from, limit int, err error) {
	from, limit = 1, defaultPageLimit
	if raw := r.URL.Query().Get("cursor"); raw != "" {
		if from, err = decodeCursor(raw); err != nil {
			return 0, 0, err
		}
	}
	if raw := r.URL.Query().Get("limit"); raw != "" {
		if limit, err = strconv.Atoi(raw); err != nil || limit < 1 {
			return 0, 0, fmt.Errorf("service: limit must be a positive integer")
		}
		if limit > maxPageLimit {
			limit = maxPageLimit
		}
	}
	return from, limit, nil
}

// publishedItem is one page element of GET /v2/.../published.
type publishedItem struct {
	T         int       `json:"t"`
	Eps       float64   `json:"eps"`
	Published []float64 `json:"published"`
}

// getPublished pages through the release history oldest-first.
// next_cursor is present exactly when more steps were already published
// past the page; a dashboard polls with the last cursor to tail the
// stream (or uses /watch for push).
func (a *API) getPublished(w http.ResponseWriter, r *http.Request) {
	s, ok := a.session(w, r)
	if !ok {
		return
	}
	from, limit, err := pageParams(r)
	if err != nil {
		writeError(w, err)
		return
	}
	srv := s.Server()
	// T first: anything <= T is fully readable even while new steps land.
	T := srv.T()
	items := []publishedItem{}
	if from <= T {
		to := min(from+limit-1, T)
		eps, hists, err := srv.PublishedRange(from, to)
		if err != nil {
			writeErrorStatus(w, http.StatusInternalServerError, err)
			return
		}
		items = make([]publishedItem, len(eps))
		for i := range eps {
			items[i] = publishedItem{T: from + i, Eps: eps[i], Published: hists[i]}
		}
	}
	resp := map[string]any{"t": T, "items": items}
	if next := from + len(items); next <= T {
		resp["next_cursor"] = encodeCursor(next)
	}
	writeJSON(w, http.StatusOK, resp)
}

// tplItem is one page element of GET /v2/.../tpl.
type tplItem struct {
	T   int     `json:"t"`
	TPL float64 `json:"tpl"`
}

// getTPL pages through one user's TPL series oldest-first.
func (a *API) getTPL(w http.ResponseWriter, r *http.Request) {
	s, ok := a.session(w, r)
	if !ok {
		return
	}
	user, err := intQuery(r, "user")
	if err != nil {
		writeError(w, err)
		return
	}
	from, limit, err := pageParams(r)
	if err != nil {
		writeError(w, err)
		return
	}
	srv := s.Server()
	T := srv.T()
	var series []float64
	if from <= T {
		to := min(from+limit-1, T)
		if series, err = srv.UserTPLRange(user, from, to); err != nil {
			writeError(w, err)
			return
		}
	} else if _, err := srv.CohortOf(user); err != nil {
		// An empty page must still validate the user.
		writeError(w, err)
		return
	}
	items := make([]tplItem, len(series))
	for i, v := range series {
		items[i] = tplItem{T: from + i, TPL: v}
	}
	resp := map[string]any{"user": user, "t": T, "items": items}
	if next := from + len(items); next <= T {
		resp["next_cursor"] = encodeCursor(next)
	}
	writeJSON(w, http.StatusOK, resp)
}

// watchSession streams SSE "step" frames: one per published step, each
// carrying the population-worst TPL/BPL/FPL at that step. ?from=T (or
// a Last-Event-ID header on reconnect) replays history after step T
// before going live; the default is live-only. Frames a slow consumer
// cannot drain are not buffered indefinitely — the stream is closed
// and the client reconnects with Last-Event-ID.
func (a *API) watchSession(w http.ResponseWriter, r *http.Request) {
	s, ok := a.session(w, r)
	if !ok {
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeErrorStatus(w, http.StatusInternalServerError, fmt.Errorf("service: response writer does not support streaming"))
		return
	}
	srv := s.Server()
	from := srv.T()
	if raw := r.URL.Query().Get("from"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 0 {
			writeError(w, fmt.Errorf("service: from must be a non-negative integer"))
			return
		}
		from = n
	}
	// Last-Event-ID wins over ?from=: an EventSource reconnect reuses
	// the original URL (query string included) and supplies the header,
	// and must resume, not replay the whole history again.
	if raw := r.Header.Get("Last-Event-ID"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 0 {
			writeError(w, fmt.Errorf("service: malformed Last-Event-ID %q", raw))
			return
		}
		from = n
	}

	// Subscribe before the catch-up reads so no step can fall between
	// catch-up and live; duplicates are filtered by frame id below.
	ch, cancel := s.watch.subscribe()
	defer cancel()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	writeFrame := func(ev watchEvent) error {
		data, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "event: step\nid: %d\ndata: %s\n\n", ev.T, data); err != nil {
			return err
		}
		flusher.Flush()
		return nil
	}

	last := from
	for t := from + 1; t <= srv.T(); t++ {
		ev, err := s.watchFrameAt(t)
		if err != nil {
			return
		}
		if err := writeFrame(ev); err != nil {
			return
		}
		last = t
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case <-a.watchStop:
			// Graceful shutdown: end the stream now, or the open SSE
			// connection would hold http.Server.Shutdown to its deadline
			// and skip the registry's final snapshots.
			return
		case ev, ok := <-ch:
			if !ok {
				return // hub disconnected us (overflow or session delete); client reconnects
			}
			if ev.T <= last {
				continue
			}
			if err := writeFrame(ev); err != nil {
				return
			}
			last = ev.T
		}
	}
}
