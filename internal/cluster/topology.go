// Package cluster implements the horizontal sharding plane for tplserved:
// a consistent-hash topology that maps session names to shards, and an HTTP
// router that proxies /v2 traffic to the owning shard.
//
// Sessions — not users — are the placement unit: every write endpoint is
// scoped to a session, a session's engine state is a self-contained portable
// value (snapshot/restore), and the per-session stepMu already serializes its
// hot path, so a session never needs cross-shard coordination. Placing whole
// sessions keeps the ingest fast path exactly as cheap as single-node.
package cluster

import (
	"fmt"
	"net/url"
	"sort"
	"strings"
)

// DefaultRingSize is the number of hash-ring slots when none is configured.
// It only bounds placement granularity (sessions hash onto slots, slots map
// onto shards); 1024 slots keep the per-shard load imbalance small for any
// realistic shard count while the topology document stays tiny.
const DefaultRingSize = 1024

// Shard is one tplserved ingest process in the cluster.
type Shard struct {
	ID   string `json:"id"`
	Addr string `json:"addr"`
}

// Topology is the versioned cluster placement document served at
// GET /v2/topology. Placement is deterministic given the document: a session
// hashes onto a fixed-size ring slot (FNV-1a 64), and each slot is owned by
// the shard winning rendezvous hashing over (slot, shard ID). Overrides pin
// individual sessions to a shard regardless of the ring — the router records
// one after a migration. Version increases on every observable change so
// clients can cheaply detect staleness.
//
//tplvet:wire v1 schema=0104c280bcd7
type Topology struct {
	Version   int               `json:"version"`
	RingSize  int               `json:"ring_size"`
	Shards    []Shard           `json:"shards"`
	Overrides map[string]string `json:"overrides,omitempty"`
}

// fnv64 is FNV-1a 64 over s, matching the registry's stripe hash idiom.
func fnv64(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

// ParseShards splits a comma-separated shard list. Entries are either
// bare addresses ("http://a:1,http://b:1"), with IDs assigned
// positionally ("shard-0", "shard-1", ...) so the same -shards flag
// always yields the same placement, or explicit "id=addr" pairs
// ("a=http://a:1,b=http://b:1") — rendezvous hashing keys on the ID,
// so a named shard can change address without re-homing a single
// slot. The two forms must not be mixed: positional IDs shift when
// entries are inserted, which would silently re-place sessions.
func ParseShards(list string) ([]Shard, error) {
	var entries []string
	for _, raw := range strings.Split(list, ",") {
		if e := strings.TrimSpace(raw); e != "" {
			entries = append(entries, e)
		}
	}
	return ParseShardList(entries)
}

// ParseShardList is ParseShards over entries already split apart —
// the shape a config file's JSON array provides.
func ParseShardList(entries []string) ([]Shard, error) {
	var shards []Shard
	named := 0
	for _, raw := range entries {
		entry := strings.TrimSpace(raw)
		if entry == "" {
			continue
		}
		id, addr := fmt.Sprintf("shard-%d", len(shards)), entry
		// "id=addr" — but an unnamed URL can carry '=' in a query
		// string, so only split when the left side has no scheme
		// separator.
		if name, rest, ok := strings.Cut(entry, "="); ok && !strings.Contains(name, "/") {
			name = strings.TrimSpace(name)
			if name == "" {
				return nil, fmt.Errorf("cluster: shard entry %q: empty id", entry)
			}
			id, addr = name, strings.TrimSpace(rest)
			named++
		}
		if err := checkAddr(addr); err != nil {
			return nil, err
		}
		shards = append(shards, Shard{ID: id, Addr: strings.TrimRight(addr, "/")})
	}
	if len(shards) == 0 {
		return nil, fmt.Errorf("cluster: no shard addresses")
	}
	if named != 0 && named != len(shards) {
		return nil, fmt.Errorf("cluster: mixed named and positional shard entries (%d of %d named)", named, len(shards))
	}
	return shards, nil
}

func checkAddr(addr string) error {
	u, err := url.Parse(addr)
	if err != nil {
		return fmt.Errorf("cluster: shard address %q: %w", addr, err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return fmt.Errorf("cluster: shard address %q: scheme must be http or https", addr)
	}
	if u.Host == "" {
		return fmt.Errorf("cluster: shard address %q: missing host", addr)
	}
	return nil
}

// New builds a version-1 topology over the given shards. ringSize <= 0
// selects DefaultRingSize.
func New(shards []Shard, ringSize int) (*Topology, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("cluster: topology needs at least one shard")
	}
	if ringSize <= 0 {
		ringSize = DefaultRingSize
	}
	seen := make(map[string]bool, len(shards))
	for _, s := range shards {
		if s.ID == "" {
			return nil, fmt.Errorf("cluster: shard with empty id")
		}
		if seen[s.ID] {
			return nil, fmt.Errorf("cluster: duplicate shard id %q", s.ID)
		}
		seen[s.ID] = true
		if err := checkAddr(s.Addr); err != nil {
			return nil, err
		}
	}
	return &Topology{Version: 1, RingSize: ringSize, Shards: shards}, nil
}

// Validate checks a topology received over the wire.
func (t *Topology) Validate() error {
	if t.RingSize <= 0 {
		return fmt.Errorf("cluster: ring_size must be positive")
	}
	if len(t.Shards) == 0 {
		return fmt.Errorf("cluster: topology has no shards")
	}
	seen := make(map[string]bool, len(t.Shards))
	for _, s := range t.Shards {
		if s.ID == "" || s.Addr == "" {
			return fmt.Errorf("cluster: shard with empty id or addr")
		}
		if seen[s.ID] {
			return fmt.Errorf("cluster: duplicate shard id %q", s.ID)
		}
		seen[s.ID] = true
	}
	for name, id := range t.Overrides {
		if _, ok := t.ShardByID(id); !ok {
			return fmt.Errorf("cluster: override for %q names unknown shard %q", name, id)
		}
	}
	return nil
}

// Slot returns the ring slot a session name hashes to.
func (t *Topology) Slot(session string) int {
	return int(fnv64(session) % uint64(t.RingSize))
}

// slotOwner picks the shard owning a slot by rendezvous (highest-random-
// weight) hashing: each shard scores hash(slot ":" id) and the highest score
// wins. Adding or removing one shard therefore only moves the slots that
// shard wins or loses — the consistent-hashing property — without any state
// beyond the shard list itself.
func (t *Topology) slotOwner(slot int) Shard {
	var (
		best      Shard
		bestScore uint64
		have      bool
	)
	key := fmt.Sprintf("%d:", slot)
	for _, s := range t.Shards {
		score := fnv64(key + s.ID)
		if !have || score > bestScore || (score == bestScore && s.ID < best.ID) {
			best, bestScore, have = s, score, true
		}
	}
	return best
}

// Owner resolves the shard owning a session: an explicit override wins,
// otherwise ring placement decides.
func (t *Topology) Owner(session string) (Shard, error) {
	if id, ok := t.Overrides[session]; ok {
		if s, ok := t.ShardByID(id); ok {
			return s, nil
		}
		return Shard{}, fmt.Errorf("cluster: override for %q names unknown shard %q", session, id)
	}
	if len(t.Shards) == 0 {
		return Shard{}, fmt.Errorf("cluster: topology has no shards")
	}
	return t.slotOwner(t.Slot(session)), nil
}

// OwnerAddr is Owner reduced to the shard base URL; empty when unresolvable.
func (t *Topology) OwnerAddr(session string) string {
	s, err := t.Owner(session)
	if err != nil {
		return ""
	}
	return s.Addr
}

// ShardByID looks a shard up by its ID.
func (t *Topology) ShardByID(id string) (Shard, bool) {
	for _, s := range t.Shards {
		if s.ID == id {
			return s, true
		}
	}
	return Shard{}, false
}

// ShardByAddr looks a shard up by its base URL (trailing slashes ignored).
func (t *Topology) ShardByAddr(addr string) (Shard, bool) {
	addr = strings.TrimRight(addr, "/")
	for _, s := range t.Shards {
		if strings.TrimRight(s.Addr, "/") == addr {
			return s, true
		}
	}
	return Shard{}, false
}

// Clone deep-copies the topology so snapshots can be mutated independently.
func (t *Topology) Clone() *Topology {
	c := &Topology{Version: t.Version, RingSize: t.RingSize}
	c.Shards = append([]Shard(nil), t.Shards...)
	if len(t.Overrides) > 0 {
		c.Overrides = make(map[string]string, len(t.Overrides))
		for k, v := range t.Overrides {
			c.Overrides[k] = v
		}
	}
	return c
}

// SetOverride pins session -> shard id, bumping the version when the pin
// actually changes. Reports whether anything changed.
func (t *Topology) SetOverride(session, shardID string) bool {
	if _, ok := t.ShardByID(shardID); !ok {
		return false
	}
	if t.Overrides != nil && t.Overrides[session] == shardID {
		return false
	}
	// Pinning the session to its natural ring owner is equivalent to
	// removing the pin; keep the document minimal either way.
	if nat := t.slotOwner(t.Slot(session)); nat.ID == shardID {
		if t.Overrides == nil {
			return false
		}
		if _, ok := t.Overrides[session]; !ok {
			return false
		}
		delete(t.Overrides, session)
		t.Version++
		return true
	}
	if t.Overrides == nil {
		t.Overrides = make(map[string]string)
	}
	t.Overrides[session] = shardID
	t.Version++
	return true
}

// SlotCounts returns, per shard ID, how many ring slots it owns — a cheap
// balance diagnostic used by tests and the router's health payload.
func (t *Topology) SlotCounts() map[string]int {
	counts := make(map[string]int, len(t.Shards))
	for slot := 0; slot < t.RingSize; slot++ {
		counts[t.slotOwner(slot).ID]++
	}
	return counts
}

// ShardIDs returns the shard IDs in stable (sorted) order.
func (t *Topology) ShardIDs() []string {
	ids := make([]string, 0, len(t.Shards))
	for _, s := range t.Shards {
		ids = append(ids, s.ID)
	}
	sort.Strings(ids)
	return ids
}
