// Command tplload is the load generator for the continuous-release
// service: it drives one or more sessions of configurable population
// against a running tplserved over the tpl/client SDK and reports
// ingest throughput. Use it to size deployments, compare wire modes
// (batched per-user values vs batched pre-aggregated counts), and soak
// the durability pipeline.
//
// Usage:
//
//	tplload -addr http://localhost:8344 -users 100000 -steps 200
//	tplload -mode v2-values -batch 64 -sessions 4
//
// Cluster targets:
//
//	tplload -addr http://h1:8344,http://h2:8344 -sessions 8
//	tplload -addr http://router:8344 -topology -sessions 8
//
// A comma-separated -addr list drives the shards directly: each
// session is placed on the shard the cluster's own consistent hashing
// names, exactly as a router would place it. With -topology the single
// -addr is a cluster entry point (normally the router): the topology
// document is fetched once and every worker dials its session's owning
// shard directly over the shard-routing SDK. Either way the report
// shows the aggregate plus one row per shard, so scaling bottlenecks
// are attributable.
//
// Modes: v2-counts (default; NDJSON batches of pre-aggregated
// histograms — the at-scale shape), v2-values (NDJSON batches of raw
// per-user values). Every batch carries an idempotency key, so the run
// is retry-safe end to end.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/loadgen"
	"repro/internal/report"
	"repro/internal/version"
	"repro/tpl/client"
)

func main() {
	var (
		addr     = flag.String("addr", "http://127.0.0.1:8344", "base URL of the tplserved service, or a comma-separated shard list")
		topology = flag.Bool("topology", false, "treat -addr as a cluster entry point: fetch /v2/topology and dial each session's owning shard directly")
		mode     = flag.String("mode", "v2-counts", "wire mode: v2-counts, v2-values")
		sessions = flag.Int("sessions", 1, "concurrent sessions (one worker each)")
		users    = flag.Int("users", 100000, "population per session")
		domain   = flag.Int("domain", 4, "value-domain size")
		cohorts  = flag.Int("cohorts", 10, "distinct adversary-model cohorts per session")
		steps    = flag.Int("steps", 100, "time steps per session")
		batch    = flag.Int("batch", 64, "steps per v2 batch request")
		eps      = flag.Float64("eps", 0.1, "per-step privacy budget")
		seed     = flag.Int64("seed", 1, "workload seed")
		keep     = flag.Bool("keep", false, "leave the load sessions on the server (default: delete them)")
		format   = flag.String("format", "", "output format: "+report.FormatNames()+" (default text)")
		showVer  = flag.Bool("version", false, "print the build version and exit")
	)
	flag.Parse()
	if *showVer {
		fmt.Println("tplload", version.String())
		return
	}
	if err := run(os.Stdout, *addr, *mode, *topology, *sessions, *users, *domain, *cohorts, *steps, *batch, *eps, *seed, *keep, *format); err != nil {
		fmt.Fprintf(os.Stderr, "tplload: %v\n", err)
		os.Exit(1)
	}
}

// workload generates one session's steps deterministically.
type workload struct {
	rng    *rand.Rand
	users  int
	domain int
	eps    float64
}

func (wk *workload) step(counts bool) client.Step {
	st := client.Step{Eps: &wk.eps}
	if counts {
		st.Counts = make([]int, wk.domain)
		left := wk.users
		for v := 0; v < wk.domain-1; v++ {
			n := wk.rng.Intn(left + 1)
			st.Counts[v] = n
			left -= n
		}
		st.Counts[wk.domain-1] = left
	} else {
		st.Values = make([]int, wk.users)
		for i := range st.Values {
			st.Values[i] = wk.rng.Intn(wk.domain)
		}
	}
	return st
}

// percentile reads the pth percentile from an ascending-sorted sample
// using the nearest-rank rule (p in [0,100]).
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// target is one ingest destination a worker drives: the client to use
// and the shard label its numbers are attributed to.
type target struct {
	label string
	c     *client.Client
}

// resolveTargets maps each session name to its target and returns the
// client used for session lifecycle (create/delete) plus the shard
// labels in report order.
func resolveTargets(ctx context.Context, addr string, topology bool, names []string) (byName map[string]*target, admin *client.Client, labels []string, err error) {
	byName = make(map[string]*target, len(names))

	if topology {
		// One entry point; the shard-routing SDK dials owners directly.
		rc, err := client.New(addr, client.WithShardRouting())
		if err != nil {
			return nil, nil, nil, err
		}
		doc, err := rc.Topology(ctx)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("fetching topology from %s: %w", addr, err)
		}
		topo := &cluster.Topology{Version: doc.Version, RingSize: doc.RingSize, Overrides: doc.Overrides}
		for _, s := range doc.Shards {
			topo.Shards = append(topo.Shards, cluster.Shard{ID: s.ID, Addr: s.Addr})
		}
		if err := topo.Validate(); err != nil {
			return nil, nil, nil, err
		}
		for _, s := range topo.Shards {
			labels = append(labels, s.ID)
		}
		for _, name := range names {
			owner, err := topo.Owner(name)
			if err != nil {
				return nil, nil, nil, err
			}
			byName[name] = &target{label: owner.ID, c: rc}
		}
		return byName, rc, labels, nil
	}

	if strings.Contains(addr, ",") {
		// Direct shard list: place sessions exactly as the cluster's own
		// hashing would, and drive each shard with its own client.
		shards, err := cluster.ParseShards(addr)
		if err != nil {
			return nil, nil, nil, err
		}
		topo, err := cluster.New(shards, 0)
		if err != nil {
			return nil, nil, nil, err
		}
		clients := make(map[string]*client.Client, len(shards))
		for _, s := range shards {
			c, err := client.New(s.Addr)
			if err != nil {
				return nil, nil, nil, err
			}
			clients[s.ID] = c
			labels = append(labels, s.ID)
		}
		for _, name := range names {
			owner, err := topo.Owner(name)
			if err != nil {
				return nil, nil, nil, err
			}
			byName[name] = &target{label: owner.ID, c: clients[owner.ID]}
		}
		// Lifecycle calls go to each session's own shard; any client
		// works for the health probe.
		return byName, clients[shards[0].ID], labels, nil
	}

	c, err := client.New(addr)
	if err != nil {
		return nil, nil, nil, err
	}
	for _, name := range names {
		byName[name] = &target{label: addr, c: c}
	}
	return byName, c, []string{addr}, nil
}

// shardStats accumulates one shard's numbers across workers.
type shardStats struct {
	sent      int
	latencies []time.Duration
}

func run(w io.Writer, addr, mode string, topology bool, sessions, users, domain, cohorts, steps, batchSize int, eps float64, seed int64, keep bool, format string) error {
	f, err := report.ParseFormat(format)
	if err != nil {
		return err
	}
	switch mode {
	case "v2-values", "v2-counts":
	default:
		return fmt.Errorf("unknown -mode %q (want v2-counts or v2-values)", mode)
	}
	if sessions < 1 || steps < 1 || batchSize < 1 {
		return fmt.Errorf("-sessions, -steps and -batch must be positive")
	}
	ctx := context.Background()

	names := make([]string, sessions)
	for i := range names {
		names[i] = "load-" + strconv.FormatInt(seed, 10) + "-" + strconv.Itoa(i)
	}
	byName, admin, labels, err := resolveTargets(ctx, addr, topology, names)
	if err != nil {
		return err
	}
	if _, err := admin.Health(ctx); err != nil {
		return fmt.Errorf("service not reachable at %s: %w", addr, err)
	}
	for _, name := range names {
		cfg, err := loadgen.SessionConfig(name, users, domain, cohorts, 0.4, 0)
		if err != nil {
			return err
		}
		if _, err := byName[name].c.CreateSession(ctx, cfg); err != nil {
			return fmt.Errorf("creating %s: %w", name, err)
		}
	}
	if !keep {
		defer func() {
			for _, name := range names {
				_ = byName[name].c.DeleteSession(context.Background(), name)
			}
		}()
	}

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		perShard = make(map[string]*shardStats, len(labels))
	)
	for _, label := range labels {
		perShard[label] = &shardStats{}
	}
	start := time.Now()
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			wk := &workload{rng: rand.New(rand.NewSource(seed + int64(i))), users: users, domain: domain, eps: eps}
			name := names[i]
			tgt := byName[name]
			done := 0
			// Collected worker-locally; merged under the mutex at the end
			// so the timing loop never contends on it.
			local := make([]time.Duration, 0, (steps+batchSize-1)/batchSize)
			for done < steps {
				reqStart := time.Now()
				n := min(batchSize, steps-done)
				batch := make([]client.Step, n)
				for j := range batch {
					batch[j] = wk.step(mode == "v2-counts")
				}
				if _, err := tgt.c.StepsNDJSON(ctx, name, batch); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("session %s: %w", name, err)
					}
					mu.Unlock()
					return
				}
				local = append(local, time.Since(reqStart))
				done += n
			}
			mu.Lock()
			st := perShard[tgt.label]
			st.sent += done
			st.latencies = append(st.latencies, local...)
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if firstErr != nil {
		return firstErr
	}

	var sent int
	var all []time.Duration
	for _, st := range perShard {
		sent += st.sent
		all = append(all, st.latencies...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	perStep := elapsed / time.Duration(sent)
	tb := &report.Table{
		Title:  fmt.Sprintf("tplload: %s ingest against %s", mode, addr),
		Header: []string{"shard", "sessions", "users", "cohorts", "steps", "elapsed", "steps/s", "user-values/s", "per step", "p50", "p95", "p99"},
	}
	tb.AddRow(
		"all",
		strconv.Itoa(sessions),
		strconv.Itoa(users),
		strconv.Itoa(cohorts),
		strconv.Itoa(sent),
		elapsed.Round(time.Millisecond).String(),
		fmt.Sprintf("%.1f", float64(sent)/elapsed.Seconds()),
		fmt.Sprintf("%.3g", float64(sent)*float64(users)/elapsed.Seconds()),
		perStep.Round(time.Microsecond).String(),
		percentile(all, 50).Round(time.Microsecond).String(),
		percentile(all, 95).Round(time.Microsecond).String(),
		percentile(all, 99).Round(time.Microsecond).String(),
	)
	if len(labels) > 1 {
		// One row per shard: same wall clock (the run is concurrent), so
		// per-shard steps/s sum to the aggregate and imbalances show up
		// directly.
		for _, label := range labels {
			st := perShard[label]
			if st.sent == 0 {
				continue
			}
			sort.Slice(st.latencies, func(i, j int) bool { return st.latencies[i] < st.latencies[j] })
			nSess := 0
			for _, name := range names {
				if byName[name].label == label {
					nSess++
				}
			}
			tb.AddRow(
				label,
				strconv.Itoa(nSess),
				strconv.Itoa(users),
				strconv.Itoa(cohorts),
				strconv.Itoa(st.sent),
				elapsed.Round(time.Millisecond).String(),
				fmt.Sprintf("%.1f", float64(st.sent)/elapsed.Seconds()),
				fmt.Sprintf("%.3g", float64(st.sent)*float64(users)/elapsed.Seconds()),
				(elapsed / time.Duration(st.sent)).Round(time.Microsecond).String(),
				percentile(st.latencies, 50).Round(time.Microsecond).String(),
				percentile(st.latencies, 95).Round(time.Microsecond).String(),
				percentile(st.latencies, 99).Round(time.Microsecond).String(),
			)
		}
	}
	tb.Notes = append(tb.Notes, "p50/p95/p99: per-request ingest latency across all workers (a request carries one batch)")
	tb.Notes = append(tb.Notes, fmt.Sprintf("batched NDJSON, %d steps per request, idempotency-keyed (retry-safe)", batchSize))
	if len(labels) > 1 {
		tb.Notes = append(tb.Notes, "per-shard rows share the run's wall clock: their steps/s sum to the aggregate")
	}
	return tb.RenderFormat(w, f)
}
