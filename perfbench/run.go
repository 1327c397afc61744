package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"
)

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env locates the binaries and the run's scratch space, all inside the
// checkout.
type env struct {
	serverBin string
	work      string
}

// serverArgs returns tplserved's flags for a workload: the shipped
// durable defaults (group-commit journal, 2 ms window, snapshot every
// 64 steps) plus the state and engine-cache dirs, or nothing at all for
// an ephemeral server.
func serverArgs(w *workload, stateDir, cacheDir string, snapshotEvery int) []string {
	if !w.durable {
		return nil
	}
	args := []string{"-state-dir", stateDir, "-engine-cache-dir", cacheDir}
	if snapshotEvery > 0 {
		args = append(args, "-snapshot-every", strconv.Itoa(snapshotEvery))
	}
	return args
}

// runState is one run's bookkeeping across its phases.
type runState struct {
	w         *workload
	in        *inputs
	seed      int64
	env       *env
	stateDir  string
	cacheDir  string
	srv       *server
	runs      []*sessionRun
	setup     tally // set-up and untimed traffic
	ingest    tally
	reads     tally
	setupS    []float64
	recoverS  []float64
	ingestS   float64 // wall time of the timed ingest
	ingested  int     // steps acknowledged by the timed ingest
	cpuS      float64
	rssMB     []float64 // resident-set samples over the timed phases
	checkErrs []string
}

func (st *runState) fail(err error) {
	if err != nil {
		st.checkErrs = append(st.checkErrs, err.Error())
	}
}

// freshRuns resets the per-session bookkeeping (a new set-up, or an
// ephemeral server that forgot everything).
func (st *runState) freshRuns() {
	st.runs = st.runs[:0]
	for i, s := range st.in.sessions {
		st.runs = append(st.runs, &sessionRun{spec: s, keys: st.in.keys[i]})
	}
}

// freshDirs replaces the state and engine-cache directories.
func (st *runState) freshDirs(k int) error {
	st.stateDir = filepath.Join(st.env.work, fmt.Sprintf("state-%d", k))
	st.cacheDir = filepath.Join(st.env.work, fmt.Sprintf("engines-%d", k))
	for _, d := range []string{st.stateDir, st.cacheDir} {
		if err := os.RemoveAll(d); err != nil {
			return err
		}
	}
	return nil
}

// createAll creates every session over one connection.
func (st *runState) createAll(c *conn) error {
	for _, s := range st.in.sessions {
		if err := c.createSession(s); err != nil {
			return err
		}
	}
	return nil
}

// warmSessions creates every session, sends the warm-up batches, and
// reads each session's report once: the first write compiles the
// backward engines and the first report the forward ones, so no timed
// request pays a compile.
func (st *runState) warmSessions(ctx context.Context, writers []*conn) error {
	if err := st.createAll(writers[0]); err != nil {
		return err
	}
	writeBatches(ctx, writers, st.runs, st.w.warmupBatches, false, &st.setup)
	for _, sr := range st.runs {
		var rep struct{}
		if err := writers[0].getJSON("/v2/sessions/"+sr.spec.name+"/report", &rep); err != nil {
			return err
		}
	}
	return nil
}

// deleteAll deletes every session over one connection.
func (st *runState) deleteAll(c *conn) error {
	for _, s := range st.in.sessions {
		req, err := http.NewRequest(http.MethodDelete, c.base+"/v2/sessions/"+s.name, nil)
		if err != nil {
			return err
		}
		code, body, _, err := c.do(req)
		if err == nil && code != http.StatusNoContent {
			err = fmt.Errorf("deleting session %s: status %d: %s", s.name, code, body)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// acked returns the steps acknowledged across all sessions.
func (st *runState) acked() int {
	n := 0
	for _, sr := range st.runs {
		n += sr.acked
	}
	return n
}

// conns opens n fresh connections to the current server.
func (st *runState) conns(n int) []*conn {
	cs := make([]*conn, n)
	for i := range cs {
		cs[i] = newConn(st.srv.base)
	}
	return cs
}

func closeAll(cs []*conn) {
	for _, c := range cs {
		c.close()
	}
}

// start launches tplserved on the run's directories.
func (st *runState) start(snapshotEvery int) error {
	srv, err := startServer(st.env.serverBin, serverArgs(st.w, st.stateDir, st.cacheDir, snapshotEvery)...)
	if err != nil {
		return err
	}
	st.srv = srv
	return nil
}

// stop SIGKILLs the current server, if any, and waits for it. It
// returns the server's CPU time.
func (st *runState) stop() float64 {
	if st.srv == nil {
		return 0
	}
	cpuS := st.srv.kill()
	st.srv = nil
	return cpuS
}

// waitRestored asks /healthz once the restarted server listens and
// requires every session to be back (tplserved restores before it
// listens, so this is one request).
func (st *runState) waitRestored(c *conn) error {
	var h struct {
		Sessions int `json:"sessions"`
	}
	if err := c.getJSON("/healthz", &h); err != nil {
		return err
	}
	if h.Sessions != len(st.in.sessions) {
		return fmt.Errorf("restart restored %d of %d sessions", h.Sessions, len(st.in.sessions))
	}
	return nil
}

// readSlots is the read mix's fixed rotation: 7/12 TPL pages, 3/12
// published pages, 1/12 reports and 1/12 population-worst 16-event
// scans. The shares keep the median inside the TPL-page mode (the
// cheapest) and the 99th percentile inside the w-event mode (the
// dearest), away from the edge between two modes where a percentile
// jumps. Every scan uses the same w for the same reason: with w
// rotating through 4, 8 and 16, the w = 16 scans were about 1% of the
// reads and the 99th percentile jumped between them and the rest.
var readSlots = [12]byte{'t', 'p', 't', 't', 'r', 't', 'p', 't', 't', 'w', 't', 'p'}

// publishedPageLimit is the page size of the published-history reads.
const publishedPageLimit = 50

// readMix builds n reads over the sessions at their current step
// counts, visiting the sessions in turn. Every page is full (the
// cursors leave room for a whole page; every workload's T exceeds it).
// The composition is fixed; the seed picks only users and cursors, so
// every seed asks for the same amount of work.
func readMix(rng *rand.Rand, runs []*sessionRun, n int) []string {
	paths := make([]string, n)
	for i := range paths {
		sr := runs[i%len(runs)]
		base := "/v2/sessions/" + sr.spec.name
		T := sr.acked
		round := i / len(runs)
		switch readSlots[round%len(readSlots)] {
		case 'r':
			paths[i] = base + "/report"
		case 'w':
			paths[i] = base + "/wevent?w=16"
		case 't':
			co := sr.spec.cohorts[rng.Intn(len(sr.spec.cohorts))]
			paths[i] = fmt.Sprintf("%s/tpl?user=%d&cursor=%s&limit=%d", base, co.firstUser+rng.Intn(10), cursor(1+rng.Intn(T-tplPageLimit+1)), tplPageLimit)
		default:
			paths[i] = fmt.Sprintf("%s/published?cursor=%s&limit=%d", base, cursor(1+rng.Intn(T-publishedPageLimit+1)), publishedPageLimit)
		}
	}
	return paths
}

// readBlock sends one block of n reads of the mix over c. An untimed
// report per session first brings every cohort's forward series up to
// date, so no timed read pays the one-off O(T) catch-up after the
// writes before it (restart-and-read's reads beside a writer pay the
// incremental catch-up; that is what it measures).
func (st *runState) readBlock(ctx context.Context, c *conn, rng *rand.Rand, n int) error {
	for _, sr := range st.runs {
		var rep struct{}
		if err := c.getJSON("/v2/sessions/"+sr.spec.name+"/report", &rep); err != nil {
			return err
		}
	}
	doReads(ctx, c, readMix(rng, st.runs, n), &st.reads)
	return nil
}

// doReads sends the paths in order over one connection.
func doReads(ctx context.Context, c *conn, paths []string, t *tally) {
	for _, p := range paths {
		if ctx.Err() != nil {
			return
		}
		code, body, lat, err := c.get(p)
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("GET %s: status %d: %s", p, code, body)
		}
		t.add(lat, err)
	}
}

// runWorkload executes one untraced run and returns its end-to-end
// metrics.
func runWorkload(ctx context.Context, e *env, w *workload, seed int64) (*result, error) {
	in, err := buildInputs(w, seed)
	if err != nil {
		return nil, err
	}
	st := &runState{w: w, in: in, seed: seed, env: e}
	defer st.stop()
	if w.historyBatches > 0 {
		err = st.runRestartCycles(ctx)
	} else {
		err = st.runIngest(ctx)
	}
	if err != nil {
		return nil, err
	}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	return st.result(), nil
}

// runIngest is the ingest workloads' flow: set up (several times), a
// timed fixed-work ingest on two closed-loop writers, a read mix, the
// leakage checks, then the restarts.
func (st *runState) runIngest(ctx context.Context) error {
	w := st.w
	var writers []*conn
	for k := 0; k < w.setups; k++ {
		closeAll(writers)
		st.stop()
		if err := st.freshDirs(k); err != nil {
			return err
		}
		st.freshRuns()
		t0 := time.Now()
		if err := st.start(0); err != nil {
			return err
		}
		writers = st.conns(2)
		if err := st.warmSessions(ctx, writers); err != nil {
			return err
		}
		st.setupS = append(st.setupS, time.Since(t0).Seconds())
	}
	defer func() { closeAll(writers) }()
	// The read mix is spread over the run in blocks, on a writer's
	// connection (the load never needs more than two): after every round
	// of an ephemeral run, after every restart of a durable one. A burst
	// of contention on the machine then lands in one block, not in the
	// whole mix.
	rng := rand.New(rand.NewSource(st.seed ^ 0x5eed))
	for round := 0; round < w.rounds; round++ {
		if round > 0 {
			if err := st.deleteAll(writers[0]); err != nil {
				return err
			}
			st.freshRuns()
			if err := st.warmSessions(ctx, writers); err != nil {
				return err
			}
		}
		cpu0, err := st.srv.procCPU()
		if err != nil {
			return err
		}
		before := st.acked()
		stopRSS := st.srv.sampleRSS(&st.rssMB)
		st.ingestS += writeBatches(ctx, writers, st.runs, w.ingestBatches, false, &st.ingest).Seconds()
		stopRSS()
		st.ingested += st.acked() - before
		cpu1, err := st.srv.procCPU()
		if err != nil {
			return err
		}
		st.cpuS += cpu1 - cpu0
		if !w.durable {
			if err := st.readBlock(ctx, writers[0], rng, w.readMix/w.rounds); err != nil {
				return err
			}
		}
	}
	st.fail(checkLeakage(writers[0], st.runs, rng))

	for r := 0; r < w.restarts; r++ {
		if w.durable {
			// A fixed journal tail behind the last snapshot.
			writeBatches(ctx, writers[:1], st.runs, w.cycleBatches, false, &st.setup)
		}
		closeAll(writers)
		st.stop()
		t0 := time.Now()
		if err := st.start(0); err != nil {
			return err
		}
		writers = st.conns(2)
		if w.durable {
			if err := st.waitRestored(writers[0]); err != nil {
				return err
			}
			st.recoverS = append(st.recoverS, time.Since(t0).Seconds())
			st.fail(checkT(writers[0], st.runs))
			if err := st.readBlock(ctx, writers[0], rng, w.readMix/w.restarts); err != nil {
				return err
			}
			continue
		}
		// An ephemeral server restarts empty: recovery is the client
		// re-creating its sessions and the server recompiling every
		// engine, until the sessions serve writes and reads again.
		st.freshRuns()
		if err := st.warmSessions(ctx, writers); err != nil {
			return err
		}
		st.recoverS = append(st.recoverS, time.Since(t0).Seconds())
		st.fail(checkT(writers[0], st.runs))
	}
	if w.durable {
		st.fail(checkLeakage(writers[0], st.runs, rng))
	}
	return nil
}

// runRestartCycles is restart-and-read's flow: set up deep history
// (several times), then cycles of SIGKILL at a fixed journal tail,
// restart, and a read mix on one connection beside a writer on the
// other, then the leakage checks.
func (st *runState) runRestartCycles(ctx context.Context) error {
	w := st.w
	for k := 0; k < w.setups; k++ {
		if err := st.freshDirs(k); err != nil {
			return err
		}
		st.freshRuns()
		t0 := time.Now()
		if err := st.start(w.setupSnapshotEvery); err != nil {
			return err
		}
		cs := st.conns(1)
		if err := st.createAll(cs[0]); err != nil {
			return err
		}
		writeBatches(ctx, cs, st.runs, w.historyBatches, true, &st.setup)
		for _, sr := range st.runs {
			req, err := http.NewRequest(http.MethodPost, st.srv.base+"/v2/sessions/"+sr.spec.name+"/snapshot", nil)
			if err != nil {
				return err
			}
			code, body, _, err := cs[0].do(req)
			if err == nil && code != http.StatusOK {
				err = fmt.Errorf("snapshot %s: status %d: %s", sr.spec.name, code, body)
			}
			if err != nil {
				return err
			}
		}
		writeBatches(ctx, cs, st.runs, w.tailBatches, false, &st.setup)
		closeAll(cs)
		st.stop()
		st.setupS = append(st.setupS, time.Since(t0).Seconds())
		if k < w.setups-1 {
			if err := os.RemoveAll(st.stateDir); err != nil {
				return err
			}
			if err := os.RemoveAll(st.cacheDir); err != nil {
				return err
			}
		}
	}
	rng := rand.New(rand.NewSource(st.seed ^ 0x5eed))
	for r := 0; r <= w.restarts && ctx.Err() == nil; r++ {
		t0 := time.Now()
		if err := st.start(0); err != nil {
			return err
		}
		cs := st.conns(2)
		if err := st.waitRestored(cs[0]); err != nil {
			return err
		}
		if r == w.restarts {
			// The last restart only proves the final state durable.
			st.fail(checkLeakage(cs[0], st.runs, rng))
			closeAll(cs)
			st.stop()
			break
		}
		st.recoverS = append(st.recoverS, time.Since(t0).Seconds())
		st.fail(checkT(cs[0], st.runs))
		paths := readMix(rng, st.runs, w.readMix)
		before := st.acked()
		stopRSS := st.srv.sampleRSS(&st.rssMB)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			doReads(ctx, cs[0], paths, &st.reads)
		}()
		st.ingestS += writeBatches(ctx, cs[1:], st.runs, w.cycleBatches, false, &st.ingest).Seconds()
		wg.Wait()
		stopRSS()
		st.ingested += st.acked() - before
		closeAll(cs)
		st.cpuS += st.stop()
	}
	return nil
}

// result assembles the end-to-end metrics.
func (st *runState) result() *result {
	r := &result{Metrics: map[string]metric{}}
	for _, t := range []*tally{&st.setup, &st.ingest, &st.reads} {
		r.Attempted += t.attempted
		r.Failed += t.failed
		for _, e := range t.errs {
			st.checkErrs = append(st.checkErrs, e)
		}
	}
	r.Correct = r.Failed == 0 && len(st.checkErrs) == 0
	for _, e := range st.checkErrs {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", e)
	}
	put := func(name, unit string, v float64) { r.Metrics[name] = metric{Value: v, Unit: unit} }
	put("setup_s", "s", median(st.setupS))
	put("ingest_steps_per_s", "steps/s", float64(st.ingested)/st.ingestS)
	put("ingest_p50_ms", "ms", nearestRank(st.ingest.latMs, 50))
	put("ingest_p99_ms", "ms", nearestRank(st.ingest.latMs, 99))
	put("read_p50_ms", "ms", nearestRank(st.reads.latMs, 50))
	put("read_p99_ms", "ms", nearestRank(st.reads.latMs, 99))
	put("recover_s", "s", median(st.recoverS))
	put("server_rss_mb", "MB", median(st.rssMB))
	put("server_cpu_s", "s", st.cpuS)
	fmt.Fprintf(os.Stderr, "perfbench: %s samples: ingest=%d reads=%d restarts=%d setups=%d rss=%d\n",
		st.w.name, len(st.ingest.latMs), len(st.reads.latMs), len(st.recoverS), len(st.setupS), len(st.rssMB))
	fmt.Fprintf(os.Stderr, "perfbench: recover_s per restart %.4f, setup_s per set-up %.4f\n", st.recoverS, st.setupS)
	return r
}
