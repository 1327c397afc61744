package service

import (
	"context"
	"errors"
	"log"
	"net"
	"net/http"
	"time"

	"repro/internal/enginecache"
	"repro/internal/persist"
)

// shutdownGrace is how long Run waits for in-flight requests to drain
// after its context is cancelled.
const shutdownGrace = 10 * time.Second

// Server is the long-running HTTP face of the release service: an API
// plus the net/http plumbing for serving it and shutting it down
// gracefully.
type Server struct {
	api  *API
	http *http.Server
}

// Options configures the optional durability of a server.
type Options struct {
	// StateDir, when non-empty, makes the registry durable: session
	// state is snapshotted and journaled there, and every session found
	// there is restored at construction.
	StateDir string
	// SnapshotEvery is the minimum number of steps between compactions
	// (<= 0 selects the default).
	SnapshotEvery int
	// JournalSync selects the journal durability mode ("none", "group"
	// or "step"; empty selects "group" — power-loss durability at
	// group-commit cost). Ignored without a StateDir.
	JournalSync string
	// JournalWindow, when > 0, makes each group commit linger that long
	// for companions before its fsync; 0 (the default) commits whatever
	// is queued at once. Only meaningful with JournalSync "group".
	JournalWindow time.Duration
	// EngineCacheDir, when non-empty, enables the on-disk compiled-
	// engine cache: adversary models whose chain content was seen by
	// any previous process load their compiled leakage engine from disk
	// instead of recompiling. Safe to share between the state dir and
	// across restarts; a missing or corrupt cache only costs compiles.
	EngineCacheDir string
}

// New creates a server for the given listen address. logger may be nil
// to discard serving logs.
func New(addr string, logger *log.Logger) *Server {
	s, err := NewWithOptions(addr, logger, Options{})
	if err != nil {
		// Unreachable: only durable construction can fail.
		panic(err)
	}
	return s
}

// NewWithOptions is New plus durability: with a state directory it
// opens the snapshot store, enables persistence, and restores every
// session found on disk before the listener comes up — a restored
// session's leakage series continues exactly where the previous
// process left it. Sessions that fail to restore are logged and
// skipped (their files stay on disk); only a store that cannot be
// opened at all fails construction.
func NewWithOptions(addr string, logger *log.Logger, opts Options) (*Server, error) {
	api := NewAPI()
	// The engine cache attaches before any restore below, so restored
	// sessions warm-start their compiled models from disk too.
	if opts.EngineCacheDir != "" {
		ec, err := enginecache.Open(opts.EngineCacheDir)
		if err != nil {
			return nil, err
		}
		api.Registry().SetEngineCache(ec)
		logf(logger, "tplserved: engine cache at %s (%d entries)", opts.EngineCacheDir, ec.Stats().Entries)
	}
	if opts.StateDir != "" {
		store, err := persist.NewStore(opts.StateDir)
		if err != nil {
			return nil, err
		}
		syncMode := JournalSyncMode(opts.JournalSync)
		if syncMode == "" {
			syncMode = JournalSyncGroup
		}
		if err := api.Registry().SetJournalSync(syncMode, opts.JournalWindow); err != nil {
			return nil, err
		}
		if err := api.Registry().EnablePersistence(store, opts.SnapshotEvery); err != nil {
			return nil, err
		}
		restored, failed := api.Registry().RestoreAll()
		if logger != nil {
			logger.Printf("tplserved: state dir %s: restored %d session(s)", opts.StateDir, len(restored))
			for name, err := range failed {
				logger.Printf("tplserved: session %q not restored: %v", name, err)
			}
		}
	}
	s := &Server{api: api, http: NewHTTPServer(addr, api.Handler(), logger)}
	// SSE watch streams end when Shutdown begins — an open watch held to
	// the shutdown deadline would abort the drain and skip Run's final
	// snapshots.
	s.http.RegisterOnShutdown(api.StopWatchers)
	return s, nil
}

// NewHTTPServer returns the http.Server every tplserved role serves h
// with: addr, the shared timeouts, and logger for serving errors and
// Serve's lifecycle lines (nil discards the latter).
func NewHTTPServer(addr string, h http.Handler, logger *log.Logger) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ErrorLog:          logger,
		ReadHeaderTimeout: 10 * time.Second,
		// Generous but bounded: a million-user step uploads in well
		// under a second, so five minutes accommodates any honest
		// client while a byte-trickling one cannot pin a handler
		// goroutine forever or stall graceful shutdown.
		ReadTimeout:  5 * time.Minute,
		WriteTimeout: 5 * time.Minute,
		IdleTimeout:  2 * time.Minute,
	}
}

// API returns the underlying API (and through it the registry).
func (s *Server) API() *API { return s.api }

// Run serves until ctx is cancelled (see Serve), then takes one final
// snapshot per session so a clean restart replays no journal at all.
func (s *Server) Run(ctx context.Context, ready func(net.Addr)) error {
	if err := Serve(ctx, s.http, ready); err != nil {
		return err
	}
	if err := s.api.Registry().Close(); err != nil {
		logf(s.http.ErrorLog, "tplserved: finalizing persisted state: %v", err)
		return err
	}
	return nil
}

// Serve listens on hs.Addr and serves until ctx is cancelled, then
// drains in-flight requests for up to shutdownGrace. ready, when
// non-nil, is called with the bound address once the listener is up
// (tests and callers using ":0" learn the real port).
func Serve(ctx context.Context, hs *http.Server, ready func(net.Addr)) error {
	ln, err := net.Listen("tcp", hs.Addr)
	if err != nil {
		return err
	}
	if ready != nil {
		ready(ln.Addr())
	}
	logf(hs.ErrorLog, "tplserved: listening on %s", ln.Addr())

	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	select {
	case err := <-errc:
		// Serve never returns nil; surface whatever killed it.
		return err
	case <-ctx.Done():
	}
	logf(hs.ErrorLog, "tplserved: shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil {
		return err
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// logf logs through logger unless it is nil.
func logf(logger *log.Logger, format string, args ...any) {
	if logger != nil {
		logger.Printf(format, args...)
	}
}
