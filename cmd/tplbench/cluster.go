package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/loadgen"
	"repro/internal/persist"
	"repro/internal/service"
	"repro/tpl/client"
)

// The cluster rows: weak-scaling ingest across N shards in one
// process. Each shard is a fully isolated tplserved data plane — its
// own registry, its own persist store, its own group-commit journal,
// its own TCP listener — exactly what `-role shard` boots, minus the
// process boundary. One session and one writer per shard, all posting
// counts batches (minimal responses) against a shared deadline, so
// growing N grows the offered load with the capacity (weak scaling:
// the per-shard work is constant, the aggregate should grow ~N×).
//
// The writers dial their shard directly rather than through a router:
// topology-aware clients are the design's steady-state data path (the
// router exists for topology discovery and transition traffic), so
// the scaling number measures what the architecture actually promises.
//
// Durability is ON (group-commit journal). That is deliberate twice
// over: it is the production configuration, and the commit window is
// precisely the per-request cost that a single shard cannot buy back
// with more client concurrency — one journal, one commit lock. Adding
// shards multiplies independent commit groups, which is where the
// near-linear aggregate comes from.
//
// The shards run a 6ms commit window (-journal-window 6ms in flag
// terms) where the default lingers not at all. The scaling rows must
// measure shard independence, not how many cores the bench machine
// happens to have: with a wide window each request's CPU share
// (decode, journal gob-encode, fsync issue) stays small next to the
// window even with four shards on one core, so the measured regime is
// the commit-window-bound one the sharding design targets. The perf gate
// then holds the ratio — a change that couples the shards (a shared
// lock, a shared committer) collapses it regardless of the window.
const clusterCommitWindow = 6 * time.Millisecond

type benchShard struct {
	api  *service.API
	hs   *http.Server
	base string
	dir  string
	post *poster
	name string // its session
}

// startBenchShard boots one isolated durable shard on a loopback port
// and creates its session.
func startBenchShard(hc *http.Client, id int, users, domain, cohorts int) (*benchShard, error) {
	dir, err := os.MkdirTemp("", "tplbench-cluster")
	if err != nil {
		return nil, err
	}
	s := &benchShard{api: service.NewAPI(), dir: dir}
	store, err := persist.NewStore(dir)
	if err != nil {
		s.stop()
		return nil, err
	}
	if err := s.api.Registry().SetJournalSync(service.JournalSyncGroup, clusterCommitWindow); err != nil {
		s.stop()
		return nil, err
	}
	// Snapshots off the timed path: at 1<<20 steps between snapshots the
	// window only ever pays journal appends, never a full-state encode.
	if err := s.api.Registry().EnablePersistence(store, 1<<20); err != nil {
		s.stop()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.stop()
		return nil, err
	}
	s.hs = &http.Server{Handler: s.api.Handler()}
	go s.hs.Serve(ln)
	s.base = "http://" + ln.Addr().String()

	s.name = fmt.Sprintf("bench-cluster-%d", id)
	cfg, err := loadgen.SessionConfig(s.name, users, domain, cohorts, 0.45, 7)
	if err != nil {
		s.stop()
		return nil, err
	}
	c, err := client.New(s.base)
	if err != nil {
		s.stop()
		return nil, err
	}
	if _, err := c.CreateSession(context.Background(), cfg); err != nil {
		s.stop()
		return nil, err
	}
	s.post, err = newPoster(hc, s.base+"/v2/sessions/"+s.name+"/steps", "application/x-ndjson", true)
	if err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

func (s *benchShard) stop() {
	if s.hs != nil {
		s.hs.Close()
	}
	s.api.Registry().Close()
	os.RemoveAll(s.dir)
}

// runClusterWindow measures one shard count: boot n shards, warm each
// writer once untimed, then drive one writer per shard until a shared
// deadline and verify every step landed.
func runClusterWindow(hc *http.Client, n int, bodies [][]byte, batch, users, domain, cohorts int,
	minWindow time.Duration) (timedResult, error) {
	shards := make([]*benchShard, 0, n)
	defer func() {
		for _, s := range shards {
			s.stop()
		}
	}()
	for i := 0; i < n; i++ {
		s, err := startBenchShard(hc, i, users, domain, cohorts)
		if err != nil {
			return timedResult{}, fmt.Errorf("cluster-%d shard %d: %w", n, i, err)
		}
		shards = append(shards, s)
	}

	var wg sync.WaitGroup
	errs := make(chan error, n)
	for _, s := range shards {
		wg.Add(1)
		go func(s *benchShard) {
			defer wg.Done()
			if err := s.post.post(bodies[0]); err != nil {
				errs <- fmt.Errorf("cluster-%d warmup: %w", n, err)
			}
		}(s)
	}
	wg.Wait()
	select {
	case err := <-errs:
		return timedResult{}, err
	default:
	}

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var steps, requests atomic.Int64
	perShard := make([]int, n) // landed steps past warmup, merged after the join
	start := time.Now()
	deadline := start.Add(minWindow)
	for i, s := range shards {
		wg.Add(1)
		go func(i int, s *benchShard) {
			defer wg.Done()
			for k := 0; time.Now().Before(deadline); k++ {
				if err := s.post.post(bodies[k%len(bodies)]); err != nil {
					errs <- fmt.Errorf("cluster-%d writer %d: %w", n, i, err)
					return
				}
				perShard[i] += batch
				steps.Add(int64(batch))
				requests.Add(1)
			}
		}(i, s)
	}
	wg.Wait()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	select {
	case err := <-errs:
		return timedResult{}, err
	default:
	}

	// Sanity: every shard really accounted its steps.
	ctx := context.Background()
	for i, s := range shards {
		c, err := client.New(s.base)
		if err != nil {
			return timedResult{}, err
		}
		sum, err := c.GetSession(ctx, s.name)
		if err != nil {
			return timedResult{}, err
		}
		if want := batch + perShard[i]; sum.T != want {
			return timedResult{}, fmt.Errorf("cluster-%d shard %d ended at t=%d, want %d", n, i, sum.T, want)
		}
	}

	res := timedResult{
		steps:    int(steps.Load()),
		requests: int(requests.Load()),
		elapsed:  elapsed,
	}
	res.allocsPerStep = float64(after.Mallocs-before.Mallocs) / float64(res.steps)
	return res, nil
}

// runClusterBench produces the cluster-1/2/4 rows. The scaling number
// each larger row carries is its aggregate steps/s over cluster-1's —
// the perf gate holds it (a "speedup" field is gated higher-better),
// so a change that breaks shard independence fails CI even if every
// absolute throughput row stays green.
func runClusterBench(hc *http.Client, bodies [][]byte, batch, users, domain, cohorts int,
	minWindow time.Duration) ([]apiPoint, error) {
	sizes := []int{1, 2, 4}
	points := make([]apiPoint, 0, len(sizes))
	var base1 float64
	for _, n := range sizes {
		res, err := runClusterWindow(hc, n, bodies, batch, users, domain, cohorts, minWindow)
		if err != nil {
			return nil, err
		}
		p := res.point(fmt.Sprintf("cluster-%d", n), len(bodies[0])/batch)
		p.Writers = n
		p.PerShardStepsPerSec = p.StepsPerSec / float64(n)
		if n == 1 {
			base1 = p.StepsPerSec
		}
		p.ScalingSpeedup = p.StepsPerSec / base1
		points = append(points, p)
	}
	return points, nil
}
