package bundle

import (
	"context"
	"crypto/ed25519"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/plugins/manager"
	"repro/internal/stream"
)

// maxBundleBytes bounds a fetched bundle (64 MiB: thousands of
// moderate transition matrices; anything bigger is a config mistake,
// not a model set).
const maxBundleBytes = 64 << 20

// Config drives the polling plugin. It is also the "plugins.bundle"
// section of the tplserved config file.
type Config struct {
	// URL is the bundle endpoint (required).
	URL string `json:"url"`
	// PublicKey is the hex Ed25519 verification key; when set, every
	// fetched bundle must carry a valid signature. Without it only
	// content hashes are checked.
	PublicKey string `json:"public_key,omitempty"`
	// Poll is the long-poll hold time sent as ?timeout= once a revision
	// is cached (default 30s).
	Poll manager.Duration `json:"poll,omitempty"`
	// MinBackoff/MaxBackoff bound the jittered exponential backoff
	// after fetch failures (defaults 500ms / 30s).
	MinBackoff manager.Duration `json:"min_backoff,omitempty"`
	MaxBackoff manager.Duration `json:"max_backoff,omitempty"`
	// Client overrides the HTTP client (tests; default has a timeout
	// comfortably above Poll).
	Client *http.Client `json:"-"`
}

// Problems returns every problem with the config, each prefixed with
// prefix (the section's path in the config file); nil means valid.
func (c *Config) Problems(prefix string) []string {
	var problems []string
	if c.URL == "" {
		problems = append(problems, prefix+".url: required")
	}
	if c.PublicKey != "" {
		if _, err := parsePublicKey(c.PublicKey); err != nil {
			problems = append(problems, fmt.Sprintf("%s.public_key: %v", prefix, err))
		}
	}
	for _, d := range []struct {
		name string
		v    manager.Duration
	}{{"poll", c.Poll}, {"min_backoff", c.MinBackoff}, {"max_backoff", c.MaxBackoff}} {
		if d.v < 0 {
			problems = append(problems, prefix+"."+d.name+": must not be negative")
		}
	}
	return problems
}

// parsePublicKey decodes a hex Ed25519 public key.
func parsePublicKey(s string) (ed25519.PublicKey, error) {
	key, err := hex.DecodeString(s)
	if err != nil {
		return nil, fmt.Errorf("not hex: %v", err)
	}
	if len(key) != ed25519.PublicKeySize {
		return nil, fmt.Errorf("want %d bytes, got %d", ed25519.PublicKeySize, len(key))
	}
	return ed25519.PublicKey(key), nil
}

// withDefaults fills the zero fields.
func (c Config) withDefaults() Config {
	if c.Poll <= 0 {
		c.Poll = manager.Duration(30 * time.Second)
	}
	if c.MinBackoff <= 0 {
		c.MinBackoff = manager.Duration(500 * time.Millisecond)
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = manager.Duration(30 * time.Second)
	}
	if c.Client == nil {
		c.Client = &http.Client{Timeout: time.Duration(c.Poll) + 30*time.Second}
	}
	return c
}

// Plugin polls a bundle server and activates verified bundles into the
// shared model cache. Activation is atomic (ModelCache.ActivateNamed):
// sessions created before a swap keep the engines they resolved,
// sessions created after resolve against the new revision, and no
// request ever sees half a bundle.
type Plugin struct {
	cache *stream.ModelCache
	cfg   Config
	pub   ed25519.PublicKey // decoded cfg.PublicKey; nil when unsigned

	mu          sync.Mutex
	lastErr     string
	revision    string // last revision this plugin activated
	activations int
	lastSuccess time.Time
}

// NewPlugin creates the bundle plugin activating into cache. It refuses
// a config with problems.
func NewPlugin(cache *stream.ModelCache, cfg Config) (*Plugin, error) {
	if problems := cfg.Problems("bundle"); problems != nil {
		return nil, errors.New(strings.Join(problems, "; "))
	}
	pub, _ := parsePublicKey(cfg.PublicKey) // vetted above; "" leaves pub nil
	return &Plugin{cache: cache, cfg: cfg.withDefaults(), pub: pub}, nil
}

// Name implements manager.Plugin.
func (p *Plugin) Name() string { return "bundle" }

// Status implements manager.Plugin: "error" while fetches fail.
func (p *Plugin) Status() manager.Status {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := manager.Status{Message: p.lastErr, Detail: map[string]any{
		"url":         p.cfg.URL,
		"revision":    p.revision,
		"activations": p.activations,
		"signed":      p.pub != nil,
	}}
	if p.lastErr != "" {
		st.State = "error"
	}
	if !p.lastSuccess.IsZero() {
		st.Detail["last_success"] = p.lastSuccess.UTC().Format(time.RFC3339Nano)
	}
	return st
}

// Run implements manager.Plugin. It is the polling loop: fetch
// (long-polling once a revision is cached), verify, activate; jittered
// exponential backoff on any failure so a broken bundle server sees a
// trickle, not a stampede.
func (p *Plugin) Run(ctx context.Context) {
	backoff := time.Duration(0)
	for {
		p.mu.Lock()
		etag := p.revision
		p.mu.Unlock()
		changed, err := p.fetchOnce(ctx, etag)
		switch {
		case ctx.Err() != nil:
			return
		case err != nil:
			if backoff == 0 {
				backoff = time.Duration(p.cfg.MinBackoff)
			} else {
				backoff = min(backoff*2, time.Duration(p.cfg.MaxBackoff))
			}
			p.mu.Lock()
			p.lastErr = err.Error()
			p.mu.Unlock()
			// Full jitter: sleep U(0, backoff]. Decorrelates a fleet of
			// pollers recovering from one server outage.
			sleep := time.Duration(rand.Int63n(int64(backoff))) + time.Millisecond
			select {
			case <-time.After(sleep):
			case <-ctx.Done():
				return
			}
		default:
			backoff = 0
			p.mu.Lock()
			p.lastErr = ""
			p.lastSuccess = time.Now()
			p.mu.Unlock()
			if !changed && etag == "" {
				// Nothing published yet and no long-poll hold happened
				// (no ETag to wait on): pace the retry.
				select {
				case <-time.After(time.Duration(p.cfg.MinBackoff)):
				case <-ctx.Done():
					return
				}
			}
		}
	}
}

// fetchOnce performs one conditional GET. With a cached revision it
// long-polls (the server holds the request until the bundle changes or
// the configured Poll lapses); a 200 verifies and activates. changed
// reports whether a new revision was activated.
func (p *Plugin) fetchOnce(ctx context.Context, etag string) (changed bool, err error) {
	cfg := p.cfg
	url := cfg.URL
	if etag != "" {
		sep := "?"
		if containsQuery(url) {
			sep = "&"
		}
		url += sep + "timeout=" + cfg.Poll.String()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return false, err
	}
	if etag != "" {
		req.Header.Set("If-None-Match", etag)
	}
	resp, err := cfg.Client.Do(req)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusNotModified:
		return false, nil
	case http.StatusNotFound:
		// The server is up but has no bundle yet — not an error worth
		// backing off hard for; treated as "no change".
		return false, nil
	case http.StatusOK:
	default:
		return false, fmt.Errorf("bundle: %s returned %s", cfg.URL, resp.Status)
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxBundleBytes+1))
	if err != nil {
		return false, err
	}
	if len(body) > maxBundleBytes {
		return false, fmt.Errorf("bundle: payload exceeds %d bytes", maxBundleBytes)
	}
	b, err := Parse(body, p.pub)
	if err != nil {
		return false, err
	}
	if b.Revision == etag {
		return false, nil
	}
	// Activation compiles new chains through the content cache here, on
	// the plugin goroutine, then swaps the table atomically.
	p.cache.ActivateNamed(b.Revision, b.AdversaryModels())
	p.mu.Lock()
	p.revision = b.Revision
	p.activations++
	p.mu.Unlock()
	return true, nil
}

// containsQuery reports whether a URL already carries a query string.
func containsQuery(url string) bool {
	for i := 0; i < len(url); i++ {
		if url[i] == '?' {
			return true
		}
	}
	return false
}
