// Command tplserved runs the continuous-release service: the trusted
// aggregator of the paper's Fig. 1 as a long-running multi-tenant JSON
// HTTP server (see internal/service for the API).
//
// Usage:
//
//	tplserved -addr :8344
//	tplserved -addr :8344 -state-dir /var/lib/tplserved -snapshot-every 64
//	tplserved -config /etc/tplserved/config.json
//	tplserved -config config.json -validate-config
//
// With -state-dir the accounting is durable: each session's leakage
// state is a base snapshot (atomically replaced when the journal
// outgrows it) plus a per-session journal every batch is appended to,
// so a crash — even SIGKILL — recovers to the exact leakage series via
// snapshot + journal replay, and a restart restores all sessions
// before serving. Without it a restart forgets all sessions (and with
// them every user's accumulated leakage), which would let an operator
// reset privacy budgets by bouncing the process.
//
// With -config the server loads a declarative JSON config file
// (schema: internal/plugins/plugincfg) that additionally drives the
// management plane: a bundle plugin polling signed model bundles and
// hot-swapping them into the shared model cache, a decision-log plugin
// streaming every accounting decision to an upload endpoint or spool
// file, and a status plugin reporting bundle revisions, snapshot ages
// and budget pressure. Precedence is fixed: built-in defaults <
// config file < explicitly-set flags. -validate-config lints the file
// and exits without booting.
//
// Sessions are created over the API, ingest time steps in atomic
// batches (JSON arrays or NDJSON streams, idempotency-keyed so
// retries are exactly-once) with explicit or planned budgets, and
// answer leakage queries; users declaring identical adversary models
// share one accountant (cohort-sharded accounting), so sessions scale
// to very large populations. Session configs may reference bundle
// models by name ({"model": {"ref": "road"}}) instead of inlining
// matrices. Errors are RFC 7807 problem+json with stable codes. Go
// callers should use the typed tpl/client SDK instead of raw HTTP. The
// server shuts down gracefully on SIGINT/SIGTERM, draining in-flight
// requests.
//
//	curl -s localhost:8344/healthz
//	curl -s -X POST localhost:8344/v2/sessions -d '{
//	  "name": "demo", "domain": 2,
//	  "cohorts": [{"users": 100000, "model": {"ref": "road"}},
//	              {"users": 900000, "model": {}}]}'
//	curl -s -X POST localhost:8344/v2/sessions/demo/steps -H 'Idempotency-Key: b1' \
//	  -d '[{"counts": [...], "eps": 0.1}, {"counts": [...], "eps": 0.1}]'
//	curl -s 'localhost:8344/v2/sessions/demo/published?limit=10'
//	curl -s 'localhost:8344/v2/sessions/demo/report?format=jsonl'
//	curl -s -N 'localhost:8344/v2/sessions/demo/watch?from=0'
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/plugins/plugincfg"
	"repro/internal/service"
	"repro/internal/version"
)

// pluginStopGrace bounds the graceful plugin stop (final decision-log
// flush) after the server has drained.
const pluginStopGrace = 10 * time.Second

func main() {
	validateOnly := flag.Bool("validate-config", false, "parse and validate -config, print every problem, and exit (non-zero when invalid)")
	showVer := flag.Bool("version", false, "print the build version and exit")
	// The setting flags and -config belong to plugincfg, which applies
	// the precedence: defaults < config file < explicitly-set flags.
	cfg, configPath, err := plugincfg.Parse(flag.CommandLine, os.Args[1:])
	if *showVer {
		fmt.Println("tplserved", version.String())
		return
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "tplserved: %v\n", err)
		os.Exit(1)
	}
	if *validateOnly && configPath == "" {
		fmt.Fprintln(os.Stderr, "tplserved: -validate-config requires -config")
		os.Exit(2)
	}
	problems := cfg.Validate()
	for _, p := range problems {
		fmt.Fprintf(os.Stderr, "tplserved: config: %s\n", p)
	}
	if len(problems) > 0 {
		os.Exit(1)
	}
	if *validateOnly {
		fmt.Printf("tplserved: %s: config ok\n", configPath)
		return
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, cfg, nil); err != nil {
		fmt.Fprintf(os.Stderr, "tplserved: %v\n", err)
		os.Exit(1)
	}
}

// run serves until ctx is cancelled. ready, when non-nil, learns the
// bound address (tests listen on port 0).
func run(ctx context.Context, cfg plugincfg.File, ready func(net.Addr)) error {
	var logger *log.Logger
	if !cfg.Quiet {
		logger = log.New(os.Stderr, "", log.LstdFlags)
	}
	if cfg.Role == "router" {
		return runRouter(ctx, cfg, logger, ready)
	}
	srv, err := service.NewWithOptions(cfg.Addr, logger, cfg.Options())
	if err != nil {
		return err
	}
	mgr, err := cfg.BuildPlugins(srv.API().Registry())
	if err != nil {
		return err
	}
	srv.API().SetPluginHealth(func() any { return mgr.StatusAll() })
	// Plugins run on their own context: the manager's Stop (below), not
	// the serve context, ends them — decisions recorded while in-flight
	// requests drain after ctx cancels still reach the log's final
	// flush.
	if err := mgr.Start(context.Background()); err != nil {
		return err
	}
	defer func() {
		stopCtx, cancel := context.WithTimeout(context.Background(), pluginStopGrace)
		defer cancel()
		mgr.Stop(stopCtx)
	}()
	return srv.Run(ctx, ready)
}

// runRouter serves the cluster front door: no sessions, no durability —
// just the topology document and the consistent-hash proxy over the
// configured shards (internal/cluster), with the shards' HTTP bounds
// and drain.
func runRouter(ctx context.Context, cfg plugincfg.File, logger *log.Logger, ready func(net.Addr)) error {
	topo, err := cfg.Topology()
	if err != nil {
		return err
	}
	if logger != nil {
		logger.Printf("tplserved: router over %d shard(s), ring size %d, topology v%d", len(topo.Shards), topo.RingSize, topo.Version)
	}
	return service.Serve(ctx, service.NewHTTPServer(cfg.Addr, cluster.NewRouter(topo).Handler(), logger), ready)
}
