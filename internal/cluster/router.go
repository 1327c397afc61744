package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"

	"repro/internal/service"
	"repro/internal/version"
)

// Router is the stateless front door of a tplserved cluster: it owns a
// topology document, proxies every session-scoped /v2 request to the
// owning shard (streaming NDJSON and SSE bodies through unbuffered),
// fans list requests out across shards, and serves GET /v2/topology so
// SDK clients can skip the extra hop and dial shards directly.
//
// The router carries no session state, so it self-heals from topology
// drift instead of authoritatively preventing it: a shard answering 421
// wrong_shard teaches it the session's new home (recorded as a topology
// override, bumping the version), and the request is retried once when
// its body is replayable.
type Router struct {
	mu        sync.RWMutex
	topo      *Topology
	transport http.RoundTripper
}

// routerBufferLimit bounds request bodies the router buffers so it can
// retry them after a 421. Larger (or unknown-length) bodies stream
// straight through and rely on the client to follow the redirect.
const routerBufferLimit = 1 << 20

// createBufferLimit bounds a create body: the router must read it to
// learn the session name before it can pick a shard.
const createBufferLimit = 8 << 20

// NewRouter builds a router over a topology document.
func NewRouter(topo *Topology) *Router {
	return &Router{topo: topo, transport: http.DefaultTransport}
}

// Topology returns a snapshot of the current document.
func (rt *Router) Topology() *Topology {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	return rt.topo.Clone()
}

// owner resolves the shard currently owning a session.
func (rt *Router) owner(session string) (Shard, error) {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	return rt.topo.Owner(session)
}

// learnOverride records that session now lives at addr (a 421 location
// or a migrate target). Only addresses inside the shard set become
// overrides — the document cannot describe strangers — but the caller
// may still retry at a foreign addr directly.
func (rt *Router) learnOverride(session, addr string) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if s, ok := rt.topo.ShardByAddr(addr); ok {
		rt.topo.SetOverride(session, s.ID)
	}
}

// Handler builds the router's route table.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", rt.health)
	mux.HandleFunc("GET /v2/topology", rt.getTopology)
	mux.HandleFunc("GET /v2/sessions", rt.listSessions)
	mux.HandleFunc("POST /v2/sessions", rt.createSession)
	mux.HandleFunc("/v2/sessions/{name}", rt.bySession)
	mux.HandleFunc("/v2/sessions/{name}/{rest...}", rt.bySession)
	// Import is the shard-to-shard leg of a migration; routing it by the
	// {name} pattern would misread "import" as a session name.
	mux.HandleFunc("POST /v2/sessions/import", func(w http.ResponseWriter, r *http.Request) {
		service.WriteProblem(w, service.NewProblem(http.StatusBadRequest, service.CodeInvalidRequest,
			"cluster: POST /v2/sessions/import is shard-direct; the router does not accept migration pushes"))
	})
	return mux
}

func (rt *Router) getTopology(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(rt.Topology())
}

func (rt *Router) health(w http.ResponseWriter, r *http.Request) {
	t := rt.Topology()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(map[string]any{
		"status":           "ok",
		"role":             "router",
		"version":          version.String(),
		"topology_version": t.Version,
		"ring_size":        t.RingSize,
		"shards":           t.Shards,
	})
}

// hopHeaders are the hop-by-hop headers a proxy must not forward.
var hopHeaders = []string{
	"Connection", "Keep-Alive", "Proxy-Authenticate", "Proxy-Authorization",
	"Proxy-Connection", "Te", "Trailer", "Transfer-Encoding", "Upgrade",
}

func copyHeaders(dst, src http.Header) {
	for k, vv := range src {
		for _, v := range vv {
			dst.Add(k, v)
		}
	}
	for _, k := range hopHeaders {
		dst.Del(k)
	}
}

// shardUnavailable answers for a shard the router could not reach.
func shardUnavailable(w http.ResponseWriter, shard Shard, err error) {
	service.WriteProblem(w, service.NewProblem(http.StatusServiceUnavailable, service.CodeShardUnavailable,
		fmt.Sprintf("cluster: shard %s (%s) unreachable: %v", shard.ID, shard.Addr, err)))
}

// roundTrip forwards the request to addr, preserving path and query.
// body non-nil replaces the original request body (the buffered copy).
func (rt *Router) roundTrip(r *http.Request, addr string, body []byte, buffered bool) (*http.Response, error) {
	u := addr + r.URL.Path
	if r.URL.RawQuery != "" {
		u += "?" + r.URL.RawQuery
	}
	var rdr io.Reader
	if buffered {
		rdr = bytes.NewReader(body)
	} else if r.Body != nil {
		rdr = r.Body
	}
	out, err := http.NewRequestWithContext(r.Context(), r.Method, u, rdr)
	if err != nil {
		return nil, err
	}
	copyHeaders(out.Header, r.Header)
	if buffered {
		out.ContentLength = int64(len(body))
	} else {
		out.ContentLength = r.ContentLength
	}
	return rt.transport.RoundTrip(out)
}

// relay copies a shard response to the client, flushing after every
// chunk so streamed NDJSON tables and SSE watch frames pass through
// with no added latency.
func relay(w http.ResponseWriter, resp *http.Response) {
	defer resp.Body.Close()
	copyHeaders(w.Header(), resp.Header)
	w.WriteHeader(resp.StatusCode)
	fl, _ := w.(http.Flusher)
	buf := make([]byte, 32<<10)
	for {
		n, err := resp.Body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return
			}
			if fl != nil {
				fl.Flush()
			}
		}
		if err != nil {
			return
		}
	}
}

// problemLocation extracts the code and location members of a (small)
// problem+json body, returning the body for re-emission.
func problemLocation(resp *http.Response) (code, location string, body []byte) {
	body, _ = io.ReadAll(io.LimitReader(resp.Body, 64<<10))
	resp.Body.Close()
	var p struct {
		Code     string `json:"code"`
		Location string `json:"location"`
	}
	_ = json.Unmarshal(body, &p)
	return p.Code, p.Location, body
}

// bySession proxies one session-scoped request to the owning shard. A
// wrong_shard answer teaches the router the new placement; requests
// whose body the router holds (or that have none) are then retried once
// at the session's new home.
func (rt *Router) bySession(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	shard, err := rt.owner(name)
	if err != nil {
		service.WriteProblem(w, service.NewProblem(http.StatusInternalServerError, service.CodeInternal, err.Error()))
		return
	}

	// Buffer small bodies so a 421 can be retried (and so a successful
	// migrate can teach the router its own override, below).
	var body []byte
	buffered := r.Body == nil || r.ContentLength == 0
	if !buffered && r.ContentLength > 0 && r.ContentLength <= routerBufferLimit {
		body, err = io.ReadAll(io.LimitReader(r.Body, routerBufferLimit+1))
		if err != nil {
			service.WriteProblem(w, service.NewProblem(http.StatusBadRequest, service.CodeInvalidRequest,
				fmt.Sprintf("cluster: reading request body: %v", err)))
			return
		}
		buffered = true
	}

	addr := shard.Addr
	for attempt := 0; ; attempt++ {
		resp, err := rt.roundTrip(r, addr, body, buffered)
		if err != nil {
			shardUnavailable(w, shard, err)
			return
		}
		if resp.StatusCode == http.StatusMisdirectedRequest {
			code, location, pbody := problemLocation(resp)
			if code == service.CodeWrongShard && location != "" {
				rt.learnOverride(name, location)
				if buffered && attempt == 0 {
					addr = strings.TrimRight(location, "/")
					continue
				}
			}
			// Unreplayable body (or second miss): hand the redirect to the
			// client, which follows the location itself.
			w.Header().Set("Content-Type", "application/problem+json")
			w.WriteHeader(http.StatusMisdirectedRequest)
			w.Write(pbody)
			return
		}
		if r.Method == http.MethodPost && resp.StatusCode/100 == 2 && strings.HasSuffix(r.URL.Path, "/migrate") && buffered {
			// The router just proxied a successful migrate: record the new
			// placement so the next request skips the 421 round trip.
			var req struct {
				Target string `json:"target"`
			}
			if json.Unmarshal(body, &req) == nil && req.Target != "" {
				rt.learnOverride(name, strings.TrimRight(req.Target, "/"))
			}
		}
		relay(w, resp)
		return
	}
}

// createSession reads the body to learn the session name, then routes
// the create to the shard the ring places that name on.
func (rt *Router) createSession(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, createBufferLimit+1))
	if err != nil {
		service.WriteProblem(w, service.NewProblem(http.StatusBadRequest, service.CodeInvalidRequest,
			fmt.Sprintf("cluster: reading create body: %v", err)))
		return
	}
	if len(body) > createBufferLimit {
		service.WriteProblem(w, service.NewProblem(http.StatusRequestEntityTooLarge, service.CodePayloadTooLarge,
			fmt.Sprintf("cluster: create body larger than the router's %d-byte ceiling; create directly on the owning shard", createBufferLimit)))
		return
	}
	var peek struct {
		Name string `json:"name"`
	}
	if err := json.Unmarshal(body, &peek); err != nil || peek.Name == "" {
		// Let a shard produce the canonical validation problem.
		peek.Name = ""
	}
	shard, err := rt.owner(peek.Name)
	if err != nil {
		service.WriteProblem(w, service.NewProblem(http.StatusInternalServerError, service.CodeInternal, err.Error()))
		return
	}
	resp, err := rt.roundTrip(r, shard.Addr, body, true)
	if err != nil {
		shardUnavailable(w, shard, err)
		return
	}
	relay(w, resp)
}

// listSessions fans a session list out to every shard and merges the
// results sorted by name, preserving each shard's own summary bodies.
func (rt *Router) listSessions(w http.ResponseWriter, r *http.Request) {
	t := rt.Topology()
	type entry struct {
		name string
		raw  json.RawMessage
	}
	var merged []entry
	for _, shard := range t.Shards {
		resp, err := rt.roundTrip(r, shard.Addr, nil, true)
		if err != nil {
			shardUnavailable(w, shard, err)
			return
		}
		body, rerr := io.ReadAll(io.LimitReader(resp.Body, 256<<20))
		resp.Body.Close()
		if rerr != nil || resp.StatusCode != http.StatusOK {
			shardUnavailable(w, shard, fmt.Errorf("list answered status %d", resp.StatusCode))
			return
		}
		var page struct {
			Sessions []json.RawMessage `json:"sessions"`
		}
		if err := json.Unmarshal(body, &page); err != nil {
			shardUnavailable(w, shard, fmt.Errorf("decoding list: %w", err))
			return
		}
		for _, raw := range page.Sessions {
			var s struct {
				Name string `json:"name"`
			}
			_ = json.Unmarshal(raw, &s)
			merged = append(merged, entry{name: s.Name, raw: raw})
		}
	}
	sort.Slice(merged, func(i, j int) bool { return merged[i].name < merged[j].name })
	out := make([]json.RawMessage, len(merged))
	for i, e := range merged {
		out[i] = e.raw
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(map[string]any{"sessions": out})
}
