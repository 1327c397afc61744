package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"

	"repro/internal/persist"
)

// Cross-shard session migration. A session is a portable value — the
// snapshot body (config + full server state + idempotency memory) is
// everything a peer needs to serve it, and compiled engines rebind by
// content hash through the shared on-disk engine cache, so migration
// never recompiles a chain. The protocol is push-based and source-
// driven:
//
//  1. The source freezes the session under its stepMu (no step can land
//     mid-export) and encodes the same envelope a durable snapshot uses.
//  2. It POSTs the envelope to the target's /v2/sessions/import; the
//     target rebuilds and registers the session, writing its own initial
//     snapshot before answering.
//  3. Only after the target acknowledges does the source retire: a
//     durable tombstone records the new owner, then the local files are
//     deleted and the session leaves the registry, so every later
//     request answers 421 wrong_shard with the redirect. The tombstone
//     goes first because a crash between the two steps must restart into
//     the redirect — RestoreAll lets a tombstone win over a snapshot —
//     and never into a second owner.
//
// A failure at any point before 3 leaves the source authoritative and
// untouched (the target may hold a dead copy under a name it will refuse
// to duplicate — re-migrating after deleting it there is the recovery).
// In-flight writers that raced the hand-off and still hold the session
// pointer hit the retired flag under stepMu and are refused with the
// same 421, so no acknowledged step can ever land on the orphaned copy.

// migratePushTimeout bounds the state push when the caller's context
// carries no earlier deadline.
const migratePushTimeout = 2 * time.Minute

// checkMigrateTarget validates a migration target base URL.
func checkMigrateTarget(target string) (string, error) {
	target = strings.TrimRight(strings.TrimSpace(target), "/")
	u, err := url.Parse(target)
	if err != nil {
		return "", fmt.Errorf("service: migrate target %q: %w", target, err)
	}
	if (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return "", fmt.Errorf("service: migrate target %q: want an absolute http(s) base URL", target)
	}
	return target, nil
}

// Migrate hands the named session off to the shard at target (a base
// URL) and returns the location recorded in the tombstone. The caller's
// context bounds the state push.
func (r *Registry) Migrate(ctx context.Context, name, target string) (string, error) {
	s, err := r.Get(name) // an already-migrated name propagates its 421 redirect
	if err != nil {
		return "", err
	}
	target, err = checkMigrateTarget(target)
	if err != nil {
		return "", err
	}
	s.stepMu.Lock()
	if s.retired {
		loc := s.retiredTo
		s.stepMu.Unlock()
		return "", &WrongShardError{Name: name, Location: loc}
	}
	body, err := s.encodeStateLocked(s.srv.Snapshot())
	if err != nil {
		s.stepMu.Unlock()
		return "", err
	}
	if err := pushSessionState(ctx, target, body); err != nil {
		s.stepMu.Unlock()
		return "", fmt.Errorf("%w: %v", ErrMigrateFailed, err)
	}
	// The target acknowledged: it owns the state now. Everything below
	// only retires the local copy — failures are reported but cannot
	// un-migrate. The local files are dropped even when the tombstone
	// write fails: a lost redirect is a 404, a resurrected snapshot is a
	// second owner.
	s.retired = true
	s.retiredTo = target
	tombErr := r.saveTombstoneFile(name, target)
	dropErr := s.dropPersistenceLocked()
	s.stepMu.Unlock()
	stripe := r.stripe(name)
	stripe.mu.Lock()
	owned := stripe.sessions[name] == s
	if owned {
		delete(stripe.sessions, name)
		stripe.tombstones[name] = target
	}
	stripe.mu.Unlock()
	if owned {
		r.totalUsers.Add(-int64(s.srv.Users()))
	} else if tombErr == nil {
		// A concurrent Delete that won the map race already released the
		// capacity and wants no redirect left behind.
		r.removeTombstoneFile(name)
	}
	s.watch.closeAll()
	if tombErr != nil {
		return target, fmt.Errorf("service: migrated %q to %s but recording its tombstone failed: %w", name, target, tombErr)
	}
	if dropErr != nil {
		return target, fmt.Errorf("service: migrated %q to %s but dropping local files failed: %w", name, target, dropErr)
	}
	return target, nil
}

// pushSessionState POSTs one exported session (wrapped in the same
// checksummed envelope snapshots use) to the target's import endpoint.
func pushSessionState(ctx context.Context, target string, body []byte) error {
	var buf bytes.Buffer
	if err := persist.EncodeEnvelope(&buf, sessionSchemaVersion, body); err != nil {
		return err
	}
	if _, ok := ctx.Deadline(); !ok {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, migratePushTimeout)
		defer cancel()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, target+"/v2/sessions/import", &buf)
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return fmt.Errorf("pushing state to %s: %w", target, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		slurp, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		var p Problem
		if json.Unmarshal(slurp, &p) == nil && p.Code != "" {
			return fmt.Errorf("target %s answered %d %s: %s", target, resp.StatusCode, p.Code, p.Detail)
		}
		return fmt.Errorf("target %s answered status %d", target, resp.StatusCode)
	}
	return nil
}

// ImportSession registers a session pushed by a migrating peer. The
// body is the snapshot-envelope payload; version is the envelope's
// schema version. The imported session writes its own initial snapshot
// (durable mode) before this returns, so the acknowledgment the source
// retires on implies the state is safe here.
func (r *Registry) ImportSession(version uint32, body []byte) (*Session, error) {
	st, cfg, srv, err := r.decodeSessionState(version, body)
	if err != nil {
		return nil, err
	}
	if err := checkName(cfg.Name); err != nil {
		return nil, err
	}
	name := cfg.Name
	stripe := r.stripe(name)
	stripe.mu.RLock()
	_, taken := stripe.sessions[name]
	stripe.mu.RUnlock()
	if taken {
		return nil, fmt.Errorf("%w: %q", ErrExists, name)
	}
	r.pmu.Lock()
	store, every, mode, committer := r.store, r.snapshotEvery, r.syncMode, r.committer
	r.pmu.Unlock()
	s := &Session{
		name:          name,
		created:       st.Created,
		srv:           srv,
		now:           r.now,
		sink:          &r.decisions,
		modelRevision: cfg.ModelRevision,
		cfgJSON:       st.ConfigJSON,
		syncMode:      mode,
		committer:     committer,
	}
	// The idempotency memory travels with the session: a client retrying
	// a batch across the migration replays instead of double-applying.
	for _, rec := range st.Idem {
		if rec.FirstT >= 1 && rec.lastT() <= srv.T() {
			s.idem.put(rec)
		}
	}
	s.stepMu.Lock()
	defer s.stepMu.Unlock()
	if err := r.reserveUsers(srv.Users()); err != nil {
		return nil, err
	}
	stripe.mu.Lock()
	if _, taken := stripe.sessions[name]; taken {
		stripe.mu.Unlock()
		r.totalUsers.Add(-int64(srv.Users()))
		return nil, fmt.Errorf("%w: %q", ErrExists, name)
	}
	stripe.sessions[name] = s
	// A session migrating back under a previously handed-off name
	// supersedes the old redirect.
	hadTomb := false
	if _, hadTomb = stripe.tombstones[name]; hadTomb {
		delete(stripe.tombstones, name)
	}
	stripe.mu.Unlock()
	if hadTomb {
		r.removeTombstoneFile(name)
	}
	if store != nil {
		if err := s.initPersistenceLocked(store, every); err != nil {
			stripe.mu.Lock()
			owned := stripe.sessions[name] == s
			if owned {
				delete(stripe.sessions, name)
			}
			stripe.mu.Unlock()
			if owned {
				r.totalUsers.Add(-int64(srv.Users()))
				store.Remove(name)
			}
			return nil, err
		}
	}
	return s, nil
}

// TombstoneLocation reports the redirect recorded for a migrated-away
// session name ("" , false when none).
func (r *Registry) TombstoneLocation(name string) (string, bool) {
	stripe := r.stripe(name)
	stripe.mu.RLock()
	loc, ok := stripe.tombstones[name]
	stripe.mu.RUnlock()
	return loc, ok
}

// saveTombstoneFile durably persists a redirect (durable mode only).
func (r *Registry) saveTombstoneFile(name, location string) error {
	if store := r.Store(); store != nil {
		return store.SaveTombstone(name, location)
	}
	return nil
}

// removeTombstoneFile deletes a persisted redirect.
func (r *Registry) removeTombstoneFile(name string) {
	if store := r.Store(); store != nil {
		_ = store.RemoveTombstone(name)
	}
}
