package service

import (
	crand "crypto/rand"
	"encoding/binary"
	"fmt"

	"repro/internal/markov"
	"repro/internal/release"
	"repro/internal/stream"
)

// randomSeed draws an unpredictable seed for a session's noise stream
// from the OS entropy source.
func randomSeed() (int64, error) {
	var buf [8]byte
	if _, err := crand.Read(buf[:]); err != nil {
		return 0, fmt.Errorf("service: seeding noise source: %w", err)
	}
	return int64(binary.LittleEndian.Uint64(buf[:])), nil
}

// ModelConfig is the wire form of one adversary's temporal correlations
// (stream.AdversaryModel): either chain may be absent, and a model with
// both absent is the traditional DP adversary. Chains use the markov
// package's JSON encoding ({"rows": [[...], ...]}).
//
// Instead of inline chains, a model may name one from the active model
// bundle with Ref ({"ref": "road"}). Refs are resolved once, at
// session creation, against the bundle revision active at that moment
// — the resolved chains are inlined into the persisted config, so a
// crash recovery rebuilds the session the bundle it was created from,
// not whatever is active at restore time.
type ModelConfig struct {
	Backward *markov.Chain `json:"backward,omitempty"`
	Forward  *markov.Chain `json:"forward,omitempty"`
	Ref      string        `json:"ref,omitempty"`
}

func (m ModelConfig) adversary() stream.AdversaryModel {
	return stream.AdversaryModel{Backward: m.Backward, Forward: m.Forward}
}

// CohortConfig declares a block of users sharing one adversary model —
// the compact way to configure a large population. The expansion shares
// chain pointers, so a million-user cohort costs one model fingerprint.
type CohortConfig struct {
	Users int         `json:"users"`
	Model ModelConfig `json:"model"`
}

// PlanConfig selects a release plan to attach at session creation, so
// steps can be collected without an explicit budget. Kind uses the
// plan-kind tags of internal/release's JSON encoding.
type PlanConfig struct {
	// Kind is "upper-bound" (Algorithm 2), "quantified" (Algorithm 3,
	// needs Horizon) or "w-event" (Theorem 2 windows, needs W).
	Kind    string  `json:"kind"`
	Alpha   float64 `json:"alpha"`
	Horizon int     `json:"horizon,omitempty"`
	W       int     `json:"w,omitempty"`
	// Model supplies the correlations the plan defends against. When
	// absent, the first user's model is used.
	Model *ModelConfig `json:"model,omitempty"`
}

// SessionConfig is the POST /v2/sessions request body. The population
// is declared exactly one way: Cohorts (recommended at scale), Models
// (one per user), or bare Users (everyone a traditional DP adversary).
type SessionConfig struct {
	Name   string `json:"name"`
	Domain int    `json:"domain"`

	Users   int            `json:"users,omitempty"`
	Models  []ModelConfig  `json:"models,omitempty"`
	Cohorts []CohortConfig `json:"cohorts,omitempty"`

	// ModelRevision records the bundle revision model refs resolved
	// from. It is set by the server during resolution (a client-supplied
	// value is overwritten) and rides the persisted config so restores
	// and summaries report the provenance of the session's models.
	ModelRevision string `json:"model_revision,omitempty"`

	// Noise is "laplace" (default) or "geometric".
	Noise string `json:"noise,omitempty"`
	// Sensitivity overrides the query sensitivity when positive.
	Sensitivity float64 `json:"sensitivity,omitempty"`
	// Seed makes the noise stream reproducible when non-zero. Unlike
	// the library CLIs, the service defaults to an *unpredictable*
	// seed: a long-running server whose noise an observer can replay
	// offers no privacy at all, so determinism is the explicit opt-in.
	Seed int64 `json:"seed,omitempty"`

	Plan *PlanConfig `json:"plan,omitempty"`
}

// noiseKind parses the wire name of a noise primitive.
func noiseKind(name string) (release.Noise, error) {
	switch name {
	case "", "laplace":
		return release.LaplaceNoise, nil
	case "geometric":
		return release.GeometricNoise, nil
	default:
		return 0, fmt.Errorf("service: unknown noise kind %q (want laplace or geometric)", name)
	}
}

// noiseName is the inverse of noiseKind for summaries.
func noiseName(n release.Noise) string {
	if n == release.GeometricNoise {
		return "geometric"
	}
	return "laplace"
}

// Resource ceilings for one session. A create request is a few bytes
// but names its allocation sizes, so both must be bounded before
// anything is allocated: maxUsers caps the per-user bookkeeping
// (~40 B/user, so ~400 MB at the cap) and maxDomain caps the per-step
// histogram.
const (
	maxUsers  = 10_000_000
	maxDomain = 1_000_000
)

// population returns the declared user count without allocating
// anything — the registry's aggregate capacity check runs before Build
// so an over-cap request never triggers the allocation it names.
// Nonsense declarations clamp to maxUsers+1 (rejected later with a
// precise error by models()).
func (c *SessionConfig) population() int {
	switch {
	case len(c.Cohorts) > 0:
		total := 0
		for _, co := range c.Cohorts {
			if co.Users > maxUsers || co.Users < 0 {
				return maxUsers + 1
			}
			if total += co.Users; total > maxUsers {
				return maxUsers + 1
			}
		}
		return total
	case len(c.Models) > 0:
		return len(c.Models)
	default:
		return c.Users
	}
}

// models expands the population declaration into one adversary model
// per user.
func (c *SessionConfig) models() ([]stream.AdversaryModel, error) {
	if refs := c.modelRefs(); len(refs) > 0 {
		// Build without a preceding resolveRefs (Registry.Create does it;
		// a bare Build cannot — it has no bundle to resolve against).
		return nil, fmt.Errorf("%w: unresolved model ref %q", ErrModelNotFound, refs[0].Ref)
	}
	if c.Domain > maxDomain {
		return nil, fmt.Errorf("service: domain %d exceeds the per-session limit %d", c.Domain, maxDomain)
	}
	declared := 0
	if len(c.Cohorts) > 0 {
		declared++
	}
	if len(c.Models) > 0 {
		declared++
	}
	if declared > 1 {
		return nil, fmt.Errorf("service: declare the population as cohorts or models, not both")
	}
	switch {
	case len(c.Cohorts) > 0:
		total := 0
		for i, co := range c.Cohorts {
			if co.Users <= 0 {
				return nil, fmt.Errorf("service: cohort %d must have a positive user count, got %d", i, co.Users)
			}
			total += co.Users
			if total > maxUsers {
				return nil, fmt.Errorf("service: population exceeds the per-session limit %d", maxUsers)
			}
		}
		if c.Users != 0 && c.Users != total {
			return nil, fmt.Errorf("service: users field says %d but cohorts sum to %d", c.Users, total)
		}
		models := make([]stream.AdversaryModel, 0, total)
		for _, co := range c.Cohorts {
			m := co.Model.adversary()
			for i := 0; i < co.Users; i++ {
				models = append(models, m)
			}
		}
		return models, nil
	case len(c.Models) > 0:
		if len(c.Models) > maxUsers {
			return nil, fmt.Errorf("service: population %d exceeds the per-session limit %d", len(c.Models), maxUsers)
		}
		if c.Users != 0 && c.Users != len(c.Models) {
			return nil, fmt.Errorf("service: users field says %d but %d models declared", c.Users, len(c.Models))
		}
		models := make([]stream.AdversaryModel, len(c.Models))
		for i, m := range c.Models {
			models[i] = m.adversary()
		}
		return models, nil
	default:
		if c.Users <= 0 {
			return nil, fmt.Errorf("service: need a population: users, models, or cohorts")
		}
		if c.Users > maxUsers {
			return nil, fmt.Errorf("service: population %d exceeds the per-session limit %d", c.Users, maxUsers)
		}
		return make([]stream.AdversaryModel, c.Users), nil
	}
}

// modelRefs collects pointers to every ModelConfig in the population
// declaration (and the plan override) that names a bundle model.
func (c *SessionConfig) modelRefs() []*ModelConfig {
	var refs []*ModelConfig
	add := func(m *ModelConfig) {
		if m.Ref != "" {
			refs = append(refs, m)
		}
	}
	for i := range c.Models {
		add(&c.Models[i])
	}
	for i := range c.Cohorts {
		add(&c.Cohorts[i].Model)
	}
	if c.Plan != nil && c.Plan.Model != nil {
		add(c.Plan.Model)
	}
	return refs
}

// resolveRefs rewrites every bundle-model ref in the config to the
// chains it names in the cache's active named revision, recording that
// revision in ModelRevision. All refs resolve against one revision (a
// single atomic read), even while a bundle activation races. With no
// refs the config is untouched and ModelRevision is cleared — the
// field is server-assigned, never client-supplied.
func (c *SessionConfig) resolveRefs(cache *stream.ModelCache) error {
	refs := c.modelRefs()
	c.ModelRevision = ""
	if len(refs) == 0 {
		return nil
	}
	names := make([]string, len(refs))
	for i, m := range refs {
		if m.Backward != nil || m.Forward != nil {
			return fmt.Errorf("service: model declares both ref %q and inline chains; pick one", m.Ref)
		}
		names[i] = m.Ref
	}
	if cache == nil {
		return fmt.Errorf("%w: no model bundle active (refs %v)", ErrModelNotFound, names)
	}
	revision, models, missing := cache.ResolveNamed(names)
	if missing != nil {
		if revision == "" {
			return fmt.Errorf("%w: no model bundle active (refs %v)", ErrModelNotFound, missing)
		}
		return fmt.Errorf("%w: bundle revision %s has no model %v", ErrModelNotFound, revision, missing)
	}
	for i, m := range refs {
		m.Ref = ""
		m.Backward = models[i].Backward
		m.Forward = models[i].Forward
	}
	c.ModelRevision = revision
	return nil
}

// firstModel returns the first user's adversary model without
// expanding the whole population — boot-time restores rebuild plans
// from the stored config and only need the plan's default correlation
// source.
func (c *SessionConfig) firstModel() stream.AdversaryModel {
	switch {
	case len(c.Cohorts) > 0:
		return c.Cohorts[0].Model.adversary()
	case len(c.Models) > 0:
		return c.Models[0].adversary()
	default:
		return stream.AdversaryModel{}
	}
}

// buildPlan constructs the configured release plan. first is the first
// user's model, the default correlation source.
func (p *PlanConfig) buildPlan(first stream.AdversaryModel) (release.Plan, error) {
	pb, pf := first.Backward, first.Forward
	if p.Model != nil {
		pb, pf = p.Model.Backward, p.Model.Forward
	}
	switch p.Kind {
	case "upper-bound":
		return release.UpperBound(pb, pf, p.Alpha)
	case "quantified":
		if p.Horizon <= 0 {
			return nil, fmt.Errorf("service: quantified plan needs a positive horizon, got %d", p.Horizon)
		}
		return release.Quantified(pb, pf, p.Alpha, p.Horizon)
	case "w-event":
		if p.W <= 0 {
			return nil, fmt.Errorf("service: w-event plan needs a positive w, got %d", p.W)
		}
		return release.WEvent(pb, pf, p.Alpha, p.W)
	default:
		return nil, fmt.Errorf("service: unknown plan kind %q (want upper-bound, quantified or w-event)", p.Kind)
	}
}

// Build assembles the configured stream.Server with a private
// compiled-model cache. The registry uses BuildCached so sessions share
// compiled correlation models.
func (c *SessionConfig) Build() (*stream.Server, error) {
	return c.BuildCached(nil)
}

// BuildCached assembles the configured stream.Server, deduplicating
// compiled correlation models through the given cache (nil for a
// private one). Sessions declaring content-identical chains — the
// common case when many tenants defend against the same public road
// map — then share one compiled leakage engine per distinct matrix.
func (c *SessionConfig) BuildCached(cache *stream.ModelCache) (*stream.Server, error) {
	models, err := c.models()
	if err != nil {
		return nil, err
	}
	srv, err := stream.NewServerCached(c.Domain, len(models), models, nil, cache)
	if err != nil {
		return nil, err
	}
	// Both paths go through the stream package's tracked noise seam so
	// snapshots can record the stream position. An explicit config seed
	// is the reproducibility opt-in and is restored exactly across
	// restarts; the entropy default stays unpredictable — its seed is
	// withheld from snapshots and a restore re-seeds (recorded as
	// "reseeded" provenance).
	if c.Seed != 0 {
		srv.SetNoiseSeed(c.Seed)
	} else {
		seed, err := randomSeed()
		if err != nil {
			return nil, err
		}
		srv.SetEphemeralNoiseSeed(seed)
	}
	if c.Sensitivity != 0 {
		if err := srv.SetSensitivity(c.Sensitivity); err != nil {
			return nil, err
		}
	}
	noise, err := noiseKind(c.Noise)
	if err != nil {
		return nil, err
	}
	if err := srv.SetNoise(noise); err != nil {
		return nil, err
	}
	if c.Plan != nil {
		plan, err := c.Plan.buildPlan(models[0])
		if err != nil {
			return nil, err
		}
		srv.SetPlan(plan)
	}
	return srv, nil
}
