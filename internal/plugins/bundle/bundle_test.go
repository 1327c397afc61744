package bundle

import (
	"context"
	"crypto/ed25519"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/markov"
	"repro/internal/plugins/manager"
	"repro/internal/stream"
)

func testModels(t *testing.T) map[string]Model {
	t.Helper()
	pb, pf := markov.Fig7Backward(), markov.Fig7Forward()
	return map[string]Model{
		"road": {Backward: pb, Forward: pf},
		"none": {},
	}
}

func TestBuildVerifySign(t *testing.T) {
	models := testModels(t)
	pub, priv, err := ed25519.GenerateKey(nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(models, priv)
	if err != nil {
		t.Fatal(err)
	}
	wantRev, err := Revision(models)
	if err != nil {
		t.Fatal(err)
	}
	if b.Revision != wantRev {
		t.Fatalf("revision %s, want %s", b.Revision, wantRev)
	}
	if err := b.Verify(pub); err != nil {
		t.Fatal(err)
	}
	if err := b.Verify(nil); err != nil {
		t.Fatal(err) // content check alone also passes
	}
	// Wrong key fails.
	otherPub, _, _ := ed25519.GenerateKey(nil)
	if err := b.Verify(otherPub); err == nil {
		t.Fatal("wrong key verified")
	}
	// Unsigned bundle with a configured key fails.
	unsigned, err := Build(models, nil)
	if err != nil {
		t.Fatal(err)
	}
	if unsigned.Signature != "" {
		t.Fatal("unsigned bundle carries a signature")
	}
	if err := unsigned.Verify(pub); err == nil {
		t.Fatal("unsigned bundle verified under a key")
	}
	if err := unsigned.Verify(nil); err != nil {
		t.Fatal(err)
	}
	// Content tampering changes the hash: verification fails even
	// without a key.
	raw, _ := json.Marshal(b)
	var tampered Bundle
	json.Unmarshal(raw, &tampered)
	delete(tampered.Models, "none")
	if err := tampered.Verify(nil); err == nil {
		t.Fatal("tampered bundle verified")
	}
	// Parse round-trips.
	if _, err := Parse(raw, pub); err != nil {
		t.Fatal(err)
	}
	if _, err := Parse([]byte("{"), nil); err == nil {
		t.Fatal("garbage parsed")
	}
	// Revision is content-stable: rebuilding the same set yields the
	// same revision regardless of signing.
	again, _ := Build(testModels(t), nil)
	if again.Revision != b.Revision {
		t.Fatalf("revision unstable: %s vs %s", again.Revision, b.Revision)
	}
}

func TestServerETagAndLongPoll(t *testing.T) {
	srv := NewServer()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// No bundle yet: 404.
	resp, err := http.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("empty server returned %d", resp.StatusCode)
	}

	b1, _ := Build(testModels(t), nil)
	if err := srv.SetBundle(b1); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || resp.Header.Get("ETag") != b1.Revision {
		t.Fatalf("status %d etag %q", resp.StatusCode, resp.Header.Get("ETag"))
	}
	got, err := Parse(mustRead(t, resp), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Revision != b1.Revision {
		t.Fatalf("served revision %s", got.Revision)
	}

	// Matching If-None-Match without a timeout: immediate 304.
	req, _ := http.NewRequest(http.MethodGet, ts.URL, nil)
	req.Header.Set("If-None-Match", b1.Revision)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("conditional GET returned %d", resp.StatusCode)
	}

	// Long-poll: a held request completes with the *new* bundle when
	// one is published mid-hold.
	type result struct {
		rev  string
		code int
	}
	done := make(chan result, 1)
	go func() {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"?timeout=30s", nil)
		req.Header.Set("If-None-Match", b1.Revision)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			done <- result{}
			return
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			done <- result{code: resp.StatusCode}
			return
		}
		b, err := Parse(mustRead(t, resp), nil)
		if err != nil {
			done <- result{}
			return
		}
		done <- result{rev: b.Revision, code: resp.StatusCode}
	}()
	time.Sleep(50 * time.Millisecond) // let the poll arrive and block
	b2, _ := Build(map[string]Model{"road": {Backward: markov.Fig7Forward()}}, nil)
	if err := srv.SetBundle(b2); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-done:
		if r.code != http.StatusOK || r.rev != b2.Revision {
			t.Fatalf("long-poll result %+v, want 200/%s", r, b2.Revision)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("long-poll never completed")
	}

	// Short timeout with no change: 304 after the hold.
	req, _ = http.NewRequest(http.MethodGet, ts.URL+"?timeout=50ms", nil)
	req.Header.Set("If-None-Match", b2.Revision)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("timed-out long-poll returned %d", resp.StatusCode)
	}
}

func mustRead(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	var buf []byte
	tmp := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(tmp)
		buf = append(buf, tmp[:n]...)
		if err != nil {
			return buf
		}
	}
}

// TestPluginHotSwap runs the real poller against a real bundle server:
// the first bundle activates promptly, a revision flip mid-long-poll
// activates the new set, and the shared cache's named table follows.
func TestPluginHotSwap(t *testing.T) {
	pub, priv, err := ed25519.GenerateKey(nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	b1, _ := Build(testModels(t), priv)
	if err := srv.SetBundle(b1); err != nil {
		t.Fatal(err)
	}

	cache := stream.NewModelCache()
	p, err := NewPlugin(cache, Config{URL: ts.URL, PublicKey: hex.EncodeToString(pub), Poll: manager.Duration(10 * time.Second), MinBackoff: manager.Duration(10 * time.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}
	m := startPlugin(t, p)
	defer m.Stop(context.Background())

	waitRevision := func(want string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if cache.NamedRevision() == want && p.Status().Detail["revision"] == want {
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
		t.Fatalf("revision never reached %s (cache %s, plugin %s)", want, cache.NamedRevision(), p.Status().Detail["revision"])
	}
	waitRevision(b1.Revision)
	if _, _, missing := cache.ResolveNamed([]string{"road", "none"}); missing != nil {
		t.Fatalf("missing %v after activation", missing)
	}

	// Flip the revision: the long-polling plugin must pick it up fast.
	b2, _ := Build(map[string]Model{"road": {Backward: markov.Fig7Forward()}}, priv)
	if err := srv.SetBundle(b2); err != nil {
		t.Fatal(err)
	}
	waitRevision(b2.Revision)
	if _, _, missing := cache.ResolveNamed([]string{"none"}); missing == nil {
		t.Fatal("old revision's model still resolves after the swap")
	}
	st := m.StatusAll()["bundle"]
	if st.State != "running" || st.Detail["activations"].(int) != 2 {
		t.Fatalf("plugin status %+v", st)
	}
}

// TestPluginRejectsBadBundles keeps a tampered or wrongly-signed
// bundle out of the cache: the plugin reports the error and the cache
// keeps whatever was active.
func TestPluginRejectsBadBundles(t *testing.T) {
	pub, _, err := ed25519.GenerateKey(nil)
	if err != nil {
		t.Fatal(err)
	}
	_, wrongPriv, _ := ed25519.GenerateKey(nil)
	bad, _ := Build(testModels(t), wrongPriv)
	raw, _ := json.Marshal(bad)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("ETag", bad.Revision)
		w.Write(raw)
	}))
	defer ts.Close()

	cache := stream.NewModelCache()
	p, err := NewPlugin(cache, Config{URL: ts.URL, PublicKey: hex.EncodeToString(pub), MinBackoff: manager.Duration(5 * time.Millisecond), MaxBackoff: manager.Duration(20 * time.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}
	defer startPlugin(t, p).Stop(context.Background())
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if st := p.Status(); st.State == "error" && st.Message != "" {
			if cache.NamedRevision() != "" {
				t.Fatalf("bad bundle activated revision %s", cache.NamedRevision())
			}
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("plugin never reported the bad bundle")
}

// startPlugin runs p under a manager; the manager's Stop ends it.
func startPlugin(t *testing.T, p manager.Plugin) *manager.Manager {
	t.Helper()
	m := manager.New()
	if err := m.Register(p); err != nil {
		t.Fatal(err)
	}
	if err := m.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	return m
}
