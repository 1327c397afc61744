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
	defer s.stepMu.Unlock()
	// A session retired since the lookup must not reach the target.
	if err := s.retiredErr(); err != nil {
		return "", err
	}
	body, err := s.encodeStateLocked(s.srv.Snapshot())
	if err != nil {
		return "", err
	}
	if err := pushSessionState(ctx, target, body); err != nil {
		return "", fmt.Errorf("%w: %v", ErrMigrateFailed, err)
	}
	// The target acknowledged: it owns the state now. Everything below
	// only retires the local copy — failures are reported but cannot
	// un-migrate. The local files are dropped even when the tombstone
	// write fails: a lost redirect is a 404, a resurrected snapshot is a
	// second owner.
	if err := r.retireLocked(s, target); err != nil {
		return target, fmt.Errorf("service: migrated %q to %s but %w", name, target, err)
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
	st, err := decodeSessionState(version, body)
	if err != nil {
		return nil, err
	}
	s, err := r.sessionFromState(st)
	if err != nil {
		return nil, err
	}
	// The idempotency memory travels with the session: a client retrying
	// a batch across the migration replays instead of double-applying.
	s.adoptIdem(st.Idem)
	if err := r.admit(s, false); err != nil {
		return nil, err
	}
	return s, nil
}
