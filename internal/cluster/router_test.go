package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/service"
)

// twoShardCluster boots two real in-process shards and a router over
// them, returning the router's test server and the topology.
func twoShardCluster(t *testing.T) (*httptest.Server, []*httptest.Server, *Router) {
	t.Helper()
	var shards []*httptest.Server
	var specs []Shard
	for i := 0; i < 2; i++ {
		s := httptest.NewServer(service.NewAPI().Handler())
		t.Cleanup(s.Close)
		shards = append(shards, s)
		specs = append(specs, Shard{ID: fmt.Sprintf("shard-%d", i), Addr: s.URL})
	}
	topo, err := New(specs, 64)
	if err != nil {
		t.Fatal(err)
	}
	rt := NewRouter(topo)
	router := httptest.NewServer(rt.Handler())
	t.Cleanup(router.Close)
	return router, shards, rt
}

// nameOwnedBy finds a session name the topology places on the given
// shard address.
func nameOwnedBy(t *testing.T, topo *Topology, addr string) string {
	t.Helper()
	for i := 0; i < 10000; i++ {
		name := fmt.Sprintf("sess-%d", i)
		if topo.OwnerAddr(name) == addr {
			return name
		}
	}
	t.Fatal("no name hashes to shard")
	return ""
}

func createVia(t *testing.T, base, name string) {
	t.Helper()
	body := fmt.Sprintf(`{"name": %q, "domain": 2, "users": 1}`, name)
	resp, err := http.Post(base+"/v2/sessions", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("create %s: status %d: %s", name, resp.StatusCode, b)
	}
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if out != nil && resp.StatusCode/100 == 2 {
		if err := json.Unmarshal(body, out); err != nil {
			t.Fatalf("decoding %s: %v: %s", url, err, body)
		}
	}
	return resp.StatusCode
}

func TestRouterRoutesCreatesToOwner(t *testing.T) {
	router, shards, rt := twoShardCluster(t)
	topo := rt.Topology()
	for _, shard := range shards {
		name := nameOwnedBy(t, topo, shard.URL)
		createVia(t, router.URL, name)
		// The session must live on exactly the shard the ring names.
		if code := getJSON(t, shard.URL+"/v2/sessions/"+name, nil); code != http.StatusOK {
			t.Fatalf("session %s not on its ring owner (status %d)", name, code)
		}
	}
	// Fan-out list via the router sees both, sorted by name.
	var list struct {
		Sessions []struct {
			Name string `json:"name"`
		} `json:"sessions"`
	}
	if code := getJSON(t, router.URL+"/v2/sessions", &list); code != http.StatusOK {
		t.Fatalf("list status %d", code)
	}
	if len(list.Sessions) != 2 {
		t.Fatalf("list merged %d sessions, want 2", len(list.Sessions))
	}
	if list.Sessions[0].Name > list.Sessions[1].Name {
		t.Fatalf("list not sorted: %+v", list.Sessions)
	}
}

// TestRouterServesNoV1 checks that the router registers only the /v2
// session routes: the retired prefix is a 404 at the router itself,
// never proxied to a shard.
func TestRouterServesNoV1(t *testing.T) {
	router, shards, rt := twoShardCluster(t)
	name := nameOwnedBy(t, rt.Topology(), shards[0].URL)
	createVia(t, router.URL, name)
	const retiredPrefix = "/v1"
	for _, tc := range []struct{ method, path, body string }{
		{http.MethodGet, retiredPrefix + "/sessions", ""},
		{http.MethodPost, retiredPrefix + "/sessions", `{"name":"x","domain":2,"users":1}`},
		{http.MethodPost, retiredPrefix + "/sessions/" + name + "/steps", `{"values":[1],"eps":0.1}`},
	} {
		req, err := http.NewRequest(tc.method, router.URL+tc.path, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s %s via router: status %d, want 404", tc.method, tc.path, resp.StatusCode)
		}
	}
	var sum struct {
		T int `json:"t"`
	}
	if code := getJSON(t, shards[0].URL+"/v2/sessions/"+name, &sum); code != http.StatusOK || sum.T != 0 {
		t.Fatalf("session after retired-route requests: status %d, t=%d", code, sum.T)
	}
}

func TestRouterTopologyEndpoint(t *testing.T) {
	router, _, rt := twoShardCluster(t)
	var topo Topology
	if code := getJSON(t, router.URL+"/v2/topology", &topo); code != http.StatusOK {
		t.Fatalf("topology status %d", code)
	}
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
	if topo.Version != rt.Topology().Version || len(topo.Shards) != 2 {
		t.Fatalf("topology %+v", topo)
	}
}

func TestRouterLearnsFromWrongShard(t *testing.T) {
	router, shards, rt := twoShardCluster(t)
	topo := rt.Topology()
	name := nameOwnedBy(t, topo, shards[0].URL)
	createVia(t, router.URL, name)

	// Migrate shard-direct, behind the router's back.
	mig := fmt.Sprintf(`{"target": %q}`, shards[1].URL)
	resp, err := http.Post(shards[0].URL+"/v2/sessions/"+name+"/migrate", "application/json", strings.NewReader(mig))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("migrate status %d", resp.StatusCode)
	}

	// The router's document is now stale; a routed request must still
	// succeed (421 from the old owner teaches the new placement, retry).
	if code := getJSON(t, router.URL+"/v2/sessions/"+name, nil); code != http.StatusOK {
		t.Fatalf("routed request after migration: status %d", code)
	}
	after := rt.Topology()
	if after.Version <= topo.Version {
		t.Fatalf("router did not learn: version %d -> %d", topo.Version, after.Version)
	}
	if got, _ := after.Owner(name); got.Addr != shards[1].URL {
		t.Fatalf("router learned owner %s, want %s", got.Addr, shards[1].URL)
	}

	// Replayable POST bodies are retried too: a batch via the router
	// lands on the new owner in one request.
	batch := `[{"counts": [1, 0], "eps": 0.1}]`
	req, _ := http.NewRequest(http.MethodPost, router.URL+"/v2/sessions/"+name+"/steps", strings.NewReader(batch))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Idempotency-Key", "k1")
	bresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(bresp.Body)
	bresp.Body.Close()
	if bresp.StatusCode != http.StatusOK {
		t.Fatalf("routed batch status %d: %s", bresp.StatusCode, b)
	}
	if !bytes.Contains(b, []byte(`"count": 1`)) && !bytes.Contains(b, []byte(`"count":1`)) {
		t.Fatalf("batch result %s", b)
	}
}

func TestRouterProxiedMigrateLearns(t *testing.T) {
	router, shards, rt := twoShardCluster(t)
	topo := rt.Topology()
	name := nameOwnedBy(t, topo, shards[0].URL)
	createVia(t, router.URL, name)

	mig := fmt.Sprintf(`{"target": %q}`, shards[1].URL)
	resp, err := http.Post(router.URL+"/v2/sessions/"+name+"/migrate", "application/json", strings.NewReader(mig))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("proxied migrate status %d", resp.StatusCode)
	}
	// The router watched the migrate succeed and recorded the override
	// itself — no 421 round trip needed for the next request.
	if got, _ := rt.Topology().Owner(name); got.Addr != shards[1].URL {
		t.Fatalf("owner after proxied migrate %s, want %s", got.Addr, shards[1].URL)
	}
}

func TestRouterDeadShard(t *testing.T) {
	live := httptest.NewServer(service.NewAPI().Handler())
	defer live.Close()
	// A dead address: bind a port, then close it so nothing listens.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := "http://" + ln.Addr().String()
	ln.Close()

	topo, err := New([]Shard{{ID: "live", Addr: live.URL}, {ID: "dead", Addr: deadAddr}}, 64)
	if err != nil {
		t.Fatal(err)
	}
	rt := NewRouter(topo)
	router := httptest.NewServer(rt.Handler())
	defer router.Close()

	deadName := nameOwnedBy(t, topo, deadAddr)
	liveName := nameOwnedBy(t, topo, live.URL)
	createVia(t, router.URL, liveName)

	resp, err := http.Get(router.URL + "/v2/sessions/" + deadName)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("dead shard answered %d: %s", resp.StatusCode, body)
	}
	var p struct {
		Code string `json:"code"`
	}
	if json.Unmarshal(body, &p) != nil || p.Code != service.CodeShardUnavailable {
		t.Fatalf("problem %s", body)
	}
	// The healthy shard keeps serving through the same router.
	if code := getJSON(t, router.URL+"/v2/sessions/"+liveName, nil); code != http.StatusOK {
		t.Fatalf("live shard status %d", code)
	}
}
