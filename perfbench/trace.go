package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/enginecache"
	"repro/internal/markov"
	"repro/internal/mechanism"
	"repro/internal/persist"
	"repro/internal/service"
	"repro/internal/stream"
)

// The traced run. It hosts the service in-process and feeds the same
// seeded batches through successively deeper public entry points, each
// on its own identically configured sessions:
//
//	client request -> handler -> Session.CollectBatch ->
//	stream.Server.CollectBatch -> core.Accountant.Observe + mechanism
//
// and times the persist, enginecache and read-path calls beside them.
// Every timer wraps a call made from this file; nothing inside the
// program is changed. One closed-loop writer sends the batches
// round-robin over the sessions, so per-step times add up along the
// serial path.

// span is one timed interval. Client spans and the handler spans the
// timing middleware records share the request id (the writer is
// sequential on one connection, so the n-th request the handler sees is
// the client's n-th).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent string `json:"parent,omitempty"`
	Req    int    `json:"req"`
}

// spanLog keeps spans in memory until the run ends.
type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	seq   int // requests the middleware has seen
	timed map[int]bool
}

func (l *spanLog) add(name, parent string, req int, start, end time.Time) {
	l.mu.Lock()
	l.spans = append(l.spans, span{Name: name, Parent: parent, Req: req, Start: start.Sub(l.t0).Nanoseconds(), End: end.Sub(l.t0).Nanoseconds()})
	l.mu.Unlock()
}

// timedUS sums the durations of the named spans of timed requests, in
// µs.
func (l *spanLog) timedUS(name string) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var ns int64
	for _, s := range l.spans {
		if s.Name == name && l.timed[s.Req] {
			ns += s.End - s.Start
		}
	}
	return float64(ns) / 1e3
}

// middleware records a "handler" span around every request.
func (l *spanLog) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		l.mu.Lock()
		req := l.seq
		l.seq++
		l.mu.Unlock()
		start := time.Now()
		next.ServeHTTP(w, r)
		l.add("handler", "client", req, start, time.Now())
	})
}

// write stores the spans as JSON lines.
func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// reconcileTolerance is the share of the traced per-step time the
// unattributed remainder may take before the layer breakdown is
// reported as not reconciled.
const reconcileTolerance = 0.10

// tracer carries one traced run's inputs and scratch space.
type tracer struct {
	w    *workload
	in   *inputs
	work string
	// n is the number of timed batches per session; every phase first
	// sends the same untimed history and warm-up batches.
	n      int
	spans  spanLog
	sent   tally
	checks []string
}

// step is one batch in the order every phase sends it.
type step struct {
	session int
	body    *batchBody
	history bool
	timed   bool
}

// schedule lists every batch a phase sends, round-robin over the
// sessions: history, warm-up, then the timed batches, cycling each
// session's bodies exactly as sendBatch does over HTTP.
func (t *tracer) schedule() []step {
	var out []step
	for j := 0; j < t.w.historyBatches; j++ {
		for i, s := range t.in.sessions {
			out = append(out, step{session: i, body: &s.history[j%len(s.history)], history: true})
		}
	}
	for j := 0; j < t.w.warmupBatches+t.n; j++ {
		for i, s := range t.in.sessions {
			out = append(out, step{session: i, body: &s.pool[j%len(s.pool)], timed: j >= t.w.warmupBatches})
		}
	}
	return out
}

// batchSteps decodes a pre-encoded body's steps for the direct calls.
func batchSteps(b *batchBody) []stream.BatchStep {
	steps := make([]stream.BatchStep, len(b.eps))
	for i := range steps {
		steps[i] = stream.BatchStep{Counts: b.counts[i], Eps: &b.eps[i]}
	}
	return steps
}

// serviceOptions is the workload's tplserved configuration in-process.
func (t *tracer) serviceOptions(dir string) service.Options {
	if !t.w.durable {
		return service.Options{}
	}
	return service.Options{StateDir: filepath.Join(dir, "state"), EngineCacheDir: filepath.Join(dir, "engines")}
}

// httpPhase serves the workload's configuration on a loopback listener,
// optionally behind the timing middleware, sends the schedule from one
// closed-loop writer and returns the timed batches' wall time and
// step count.
func (t *tracer) httpPhase(dir string, traced bool, check bool) (wall time.Duration, steps int, err error) {
	srv, err := service.NewWithOptions("", nil, t.serviceOptions(dir))
	if err != nil {
		return 0, 0, err
	}
	defer srv.API().Registry().Close()
	handler := srv.API().Handler()
	if traced {
		handler = t.spans.middleware(handler)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, 0, err
	}
	hs := &http.Server{Handler: handler}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = hs.Serve(ln) // returns ErrServerClosed once Close runs below
	}()
	defer func() {
		hs.Close()
		<-served
	}()
	c := newConn("http://" + ln.Addr().String())
	defer c.close()
	runs := make([]*sessionRun, len(t.in.sessions))
	for i, s := range t.in.sessions {
		if err := c.createSession(s); err != nil {
			return 0, 0, err
		}
		runs[i] = &sessionRun{spec: s, keys: t.in.keys[i]}
	}
	if traced {
		// Creation requests were handler spans too; restart the count so
		// handler span i is client batch i.
		t.spans.mu.Lock()
		t.spans.spans = t.spans.spans[:0]
		t.spans.seq = 0
		t.spans.timed = map[int]bool{}
		t.spans.mu.Unlock()
	}
	req := 0
	var start time.Time
	for _, st := range t.schedule() {
		if st.timed && start.IsZero() {
			start = time.Now()
		}
		sr := runs[st.session]
		t0 := time.Now()
		lat, err := c.sendBatch(sr, st.history)
		t1 := time.Now()
		t.sent.add(lat, err)
		if traced {
			t.spans.add("client", "", req, t0, t1)
			t.spans.mu.Lock()
			t.spans.timed[req] = st.timed
			t.spans.mu.Unlock()
		}
		req++
		if st.timed {
			steps += len(st.body.eps)
		}
	}
	wall = time.Since(start)
	if check {
		if err := checkLeakage(c, runs, rand.New(rand.NewSource(int64(steps)))); err != nil {
			t.checks = append(t.checks, err.Error())
		}
	}
	return wall, steps, nil
}

// sessionPhase drives Session.CollectBatch directly on a registry built
// with the workload's options and returns the timed calls' total µs.
func (t *tracer) sessionPhase(dir string) (float64, error) {
	srv, err := service.NewWithOptions("", nil, t.serviceOptions(dir))
	if err != nil {
		return 0, err
	}
	reg := srv.API().Registry()
	defer reg.Close()
	sessions := make([]*service.Session, len(t.in.sessions))
	for i, s := range t.in.sessions {
		cfg := s.config
		if sessions[i], err = reg.Create(&cfg); err != nil {
			return 0, err
		}
	}
	var total time.Duration
	keys := make([]int, len(sessions))
	for _, st := range t.schedule() {
		steps := batchSteps(st.body)
		key := t.in.keys[st.session][keys[st.session]]
		keys[st.session]++
		t0 := time.Now()
		_, _, err := sessions[st.session].CollectBatch(key, steps)
		if st.timed {
			total += time.Since(t0)
		}
		if err != nil {
			return 0, err
		}
	}
	return float64(total.Nanoseconds()) / 1e3, nil
}

// streamPhase drives stream.Server.CollectBatch on identically built
// ephemeral servers. It returns the timed calls' total µs, the servers
// (for the read-path timings) and session 0's step records (for the
// replay timing).
func (t *tracer) streamPhase() (float64, []*stream.Server, []stream.StepRecord, error) {
	servers := make([]*stream.Server, len(t.in.sessions))
	for i, s := range t.in.sessions {
		var err error
		if servers[i], err = s.config.Build(); err != nil {
			return 0, nil, nil, err
		}
	}
	var total time.Duration
	var records []stream.StepRecord
	for _, st := range t.schedule() {
		steps := batchSteps(st.body)
		t0 := time.Now()
		res, err := servers[st.session].CollectBatch(steps)
		if st.timed {
			total += time.Since(t0)
		}
		if err != nil {
			return 0, nil, nil, err
		}
		if st.session == 0 {
			for _, r := range res {
				records = append(records, stream.StepRecord{T: r.T, Eps: r.Eps, Published: r.Published, NoiseDraws: r.Draws})
			}
		}
	}
	return float64(total.Nanoseconds()) / 1e3, servers, records, nil
}

// sessionEps returns each session's budget sequence over the schedule
// and the index where its timed steps begin.
func (t *tracer) sessionEps() (eps [][]float64, timedFrom []int) {
	eps = make([][]float64, len(t.in.sessions))
	timedFrom = make([]int, len(t.in.sessions))
	for i := range timedFrom {
		timedFrom[i] = -1
	}
	for _, st := range t.schedule() {
		if st.timed && timedFrom[st.session] < 0 {
			timedFrom[st.session] = len(eps[st.session])
		}
		eps[st.session] = append(eps[st.session], st.body.eps...)
	}
	return eps, timedFrom
}

// coreTimings charges every session's budgets to fresh accountants
// built from its cohorts' chains. It returns the total µs of the timed
// Observe calls, the mean ns per Observe, the mean ns per engine
// evaluation at the BPL arguments the series visits, the memo hit
// ratio derived from the BPL series, and session 0's reference
// accountants.
func (t *tracer) coreTimings() (totalUS, observeNS, evalNS, memo float64, accs0 []*core.Accountant, err error) {
	eps, timedFrom := t.sessionEps()
	var observed, evals int
	var evalTotal time.Duration
	var ratios []float64
	for i, s := range t.in.sessions {
		for _, co := range s.cohorts {
			acc := core.NewAccountant(co.backward, co.forward)
			for j, e := range eps[i] {
				t0 := time.Now()
				_, err := acc.Observe(e)
				if j >= timedFrom[i] {
					totalUS += float64(time.Since(t0).Nanoseconds()) / 1e3
					observed++
				}
				if err != nil {
					return 0, 0, 0, 0, nil, err
				}
			}
			bpl := make([]float64, acc.T())
			for j := range bpl {
				if bpl[j], err = acc.BPL(j + 1); err != nil {
					return 0, 0, 0, 0, nil, err
				}
			}
			ratios = append(ratios, memoHitRatio(bpl[timedFrom[i]:]))
			if co.backward != nil {
				q := core.NewQuantifier(co.backward)
				q.Engine()
				t0 := time.Now()
				for _, a := range bpl[timedFrom[i]:] {
					q.LossValue(a)
				}
				evalTotal += time.Since(t0)
				evals += len(bpl) - timedFrom[i]
			}
			if i == 0 {
				accs0 = append(accs0, acc)
			}
		}
	}
	if evals > 0 {
		evalNS = float64(evalTotal.Nanoseconds()) / float64(evals)
	}
	for _, r := range ratios {
		memo += r / float64(len(ratios))
	}
	return totalUS, totalUS * 1e3 / float64(observed), evalNS, memo, accs0, nil
}

// laplaceTimings releases every timed step's counts through
// mechanism.Laplace and returns the total µs and ns per value.
func (t *tracer) laplaceTimings(seed int64) (totalUS, perValueNS float64, err error) {
	rng := rand.New(rand.NewSource(seed))
	var values int
	var dst []float64
	for _, st := range t.schedule() {
		if !st.timed {
			continue
		}
		for k, counts := range st.body.counts {
			lap, err := mechanism.NewLaplace(st.body.eps[k], mechanism.CountSensitivity, rng)
			if err != nil {
				return 0, 0, err
			}
			t0 := time.Now()
			dst = lap.AppendReleaseCounts(dst[:0], counts)
			totalUS += float64(time.Since(t0).Nanoseconds()) / 1e3
			values += len(counts)
		}
	}
	return totalUS, totalUS * 1e3 / float64(values), nil
}

// medianOf times f reps times and returns the median duration.
func medianOf(reps int, f func() error) (time.Duration, error) {
	ds := make([]float64, reps)
	for i := range ds {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		ds[i] = float64(time.Since(t0))
	}
	return time.Duration(median(ds)), nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// persistTimings builds a durable copy of session 0 (the shipped sync
// mode, snapshots every four batches, the engine cache when the
// workload has one), ingests the schedule, and times snapshot,
// journal, group-commit and recovery calls at the end-of-run T.
func (t *tracer) persistTimings(put func(string, string, float64)) error {
	dir := filepath.Join(t.work, "probe")
	store, err := persist.NewStore(filepath.Join(dir, "state"))
	if err != nil {
		return err
	}
	every := 4 * t.w.batchSteps
	newRegistry := func(st *persist.Store) (*service.Registry, error) {
		reg := service.NewRegistry()
		if t.w.durable {
			ec, err := enginecache.Open(filepath.Join(dir, "engines"))
			if err != nil {
				return nil, err
			}
			reg.SetEngineCache(ec)
		}
		if err := reg.SetJournalSync(service.JournalSyncGroup, 0); err != nil {
			return nil, err
		}
		return reg, reg.EnablePersistence(st, every)
	}
	reg, err := newRegistry(store)
	if err != nil {
		return err
	}
	defer reg.Close()
	spec := t.in.sessions[0]
	cfg := spec.config
	s, err := reg.Create(&cfg)
	if err != nil {
		return err
	}
	keys := t.in.keys[0]
	send := func(b *batchBody) error {
		_, _, err := s.CollectBatch(keys[0], batchSteps(b))
		keys = keys[1:]
		return err
	}
	for _, st := range t.schedule() {
		if st.session == 0 {
			if err := send(st.body); err != nil {
				return err
			}
		}
	}

	// Snapshot path at end-of-run T.
	d, err := medianOf(5, func() error { _, err := s.SnapshotNow(); return err })
	if err != nil {
		return err
	}
	put("service.snapshot_ms", "ms", ms(d))
	d, _ = medianOf(5, func() error { s.Server().Snapshot(); return nil })
	put("stream.snapshot_capture_ms", "ms", ms(d))
	version, body, err := store.LoadSnapshot(spec.name)
	if err != nil {
		return err
	}
	d, _ = medianOf(5, func() error { _, _, err := store.LoadSnapshot(spec.name); return err })
	put("persist.snapshot_load_ms", "ms", ms(d))
	_, snapBytes, err := store.SnapshotStat(spec.name)
	if err != nil {
		return err
	}
	put("persist.snapshot_bytes", "bytes", float64(snapBytes))
	scratch, err := persist.NewStore(filepath.Join(dir, "scratch"))
	if err != nil {
		return err
	}
	d, err = medianOf(5, func() error { return scratch.SaveSnapshot("copy", version, body) })
	if err != nil {
		return err
	}
	put("persist.snapshot_save_ms", "ms", ms(d))

	// A fixed journal tail of three batches behind the snapshot.
	const tail = 3
	for i := 0; i < tail; i++ {
		if err := send(&spec.pool[i]); err != nil {
			return err
		}
	}
	tailSteps := tail * t.w.batchSteps
	var payload int
	var record []byte
	res, err := store.ReplayJournal(spec.name, func(_ uint32, b []byte) error {
		payload += len(b)
		record = append(record[:0], b...)
		return nil
	})
	if err != nil {
		return err
	}
	if res.Records != tail {
		return fmt.Errorf("probe journal holds %d records, want %d", res.Records, tail)
	}
	d, _ = medianOf(5, func() error {
		_, err := store.ReplayJournal(spec.name, func(uint32, []byte) error { return nil })
		return err
	})
	put("persist.replay_us_per_record", "us", us(d)/tail)
	jfi, err := os.Stat(filepath.Join(store.Dir(), spec.name+".journal"))
	if err != nil {
		return err
	}
	// Bytes written per step: the journal record (with its envelope)
	// plus the snapshot share at the shipped 64-step interval, against
	// the journal payload alone.
	perStep := float64(jfi.Size())/float64(tailSteps) + float64(snapBytes)/float64(max(64, t.w.batchSteps))
	put("persist.write_amplification", "ratio", perStep/(float64(payload)/float64(tailSteps)))

	// Recovery of a copy of the killed state dir (the probe registry is
	// never closed before the copy, as after SIGKILL).
	var restores []float64
	for i := 0; i < 3; i++ {
		cp := filepath.Join(dir, fmt.Sprintf("restore-%d", i))
		if err := copyDir(store.Dir(), cp); err != nil {
			return err
		}
		st2, err := persist.NewStore(cp)
		if err != nil {
			return err
		}
		reg2, err := newRegistry(st2)
		if err != nil {
			return err
		}
		t0 := time.Now()
		restored, failed := reg2.RestoreAll()
		restores = append(restores, float64(time.Since(t0)))
		reg2.Close()
		if len(failed) > 0 || len(restored) != 1 {
			return fmt.Errorf("restore of the probe copy: restored %v, failed %v", restored, failed)
		}
	}
	put("service.restore_ms", "ms", ms(time.Duration(median(restores))))

	// Journal primitives at the workload's record size.
	j, err := scratch.OpenJournal("journal")
	if err != nil {
		return err
	}
	const appends = 200
	var appendD, syncD time.Duration
	for i := 0; i < appends; i++ {
		t0 := time.Now()
		err := j.Append(version, record)
		t1 := time.Now()
		if err == nil {
			err = j.Sync()
		}
		appendD += t1.Sub(t0)
		syncD += time.Since(t1)
		if err != nil {
			j.Close()
			return err
		}
	}
	if err := j.Close(); err != nil {
		return err
	}
	put("persist.journal_append_us", "us", us(appendD)/appends)
	put("persist.journal_sync_us", "us", us(syncD)/appends)
	wait, err := groupCommitWait(scratch, version, record)
	if err != nil {
		return err
	}
	put("persist.group_commit_wait_ms", "ms", wait)
	return nil
}

// groupCommitWait appends from two goroutines, each to its own journal,
// through one GroupCommitter at the shipped window and returns the mean
// Append latency in ms.
func groupCommitWait(st *persist.Store, version uint32, record []byte) (float64, error) {
	gc := persist.NewGroupCommitter(0)
	defer gc.Close()
	const per = 100
	var mu sync.Mutex
	var total time.Duration
	var errs []error
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		j, err := st.OpenJournal(fmt.Sprintf("group-%d", g))
		if err != nil {
			return 0, err
		}
		defer j.Close()
		wg.Add(1)
		go func() {
			defer wg.Done()
			var d time.Duration
			var err error
			for i := 0; i < per && err == nil; i++ {
				t0 := time.Now()
				err = gc.Append(j, version, record)
				d += time.Since(t0)
			}
			mu.Lock()
			total += d
			if err != nil {
				errs = append(errs, err)
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	if len(errs) > 0 {
		return 0, errors.Join(errs...)
	}
	return ms(total) / (2 * per), nil
}

// copyDir copies a state dir's regular files.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// engineTimings times the first compile of up to four of the
// workload's distinct chains and the on-disk cache's Store and Load of
// the compiled engines.
func (t *tracer) engineTimings(put func(string, string, float64)) error {
	var chains []*markov.Chain
	seen := map[*markov.Chain]bool{}
	for _, s := range t.in.sessions {
		for _, co := range s.cohorts {
			for _, c := range []*markov.Chain{co.backward, co.forward} {
				if c != nil && !seen[c] && len(chains) < 4 {
					seen[c] = true
					chains = append(chains, c)
				}
			}
		}
	}
	ec, err := enginecache.Open(filepath.Join(t.work, "engine-cache"))
	if err != nil {
		return err
	}
	var compiles, stores, loads []float64
	for _, c := range chains {
		q := core.NewQuantifier(c)
		t0 := time.Now()
		e := q.Engine()
		compiles = append(compiles, ms(time.Since(t0)))
		hash := q.ContentHash()
		t0 = time.Now()
		ec.Store(hash, e)
		stores = append(stores, ms(time.Since(t0)))
		d, err := medianOf(5, func() error {
			if _, ok := ec.Load(hash, q.N()); !ok {
				return fmt.Errorf("engine cache missed a stored engine")
			}
			return nil
		})
		if err != nil {
			return err
		}
		loads = append(loads, us(d))
	}
	put("core.compile_ms", "ms", median(compiles))
	put("enginecache.store_ms", "ms", median(stores))
	put("enginecache.load_us", "us", median(loads))
	return nil
}

// readTimings times the read paths on session 0's stream server and
// reference accountants at the end-of-run T. Before each repetition one
// more batch lands, so every read pays the FPL refresh a read beside a
// writer pays.
func (t *tracer) readTimings(put func(string, string, float64), srv *stream.Server, accs []*core.Accountant, rng *rand.Rand) error {
	spec := t.in.sessions[0]
	const reps = 5
	var report, wevent, tpl, pub, maxTPL []float64
	for i := 0; i < reps; i++ {
		b := &spec.pool[i%len(spec.pool)]
		if _, err := srv.CollectBatch(batchSteps(b)); err != nil {
			return err
		}
		for _, a := range accs {
			for _, e := range b.eps {
				if _, err := a.Observe(e); err != nil {
					return err
				}
			}
		}
		T := srv.T()
		timeIt := func(dst *[]float64, scale time.Duration, f func() error) error {
			t0 := time.Now()
			if err := f(); err != nil {
				return err
			}
			*dst = append(*dst, float64(time.Since(t0))/float64(scale))
			return nil
		}
		if err := timeIt(&report, time.Millisecond, func() error { _, err := srv.Report(); return err }); err != nil {
			return err
		}
		if err := timeIt(&wevent, time.Millisecond, func() error { _, _, err := srv.MaxWEvent(8); return err }); err != nil {
			return err
		}
		from := 1 + rng.Intn(T-tplPageLimit)
		user := spec.cohorts[len(spec.cohorts)-1].firstUser
		if err := timeIt(&tpl, time.Microsecond, func() error { _, err := srv.UserTPLRange(user, from, from+tplPageLimit-1); return err }); err != nil {
			return err
		}
		if err := timeIt(&pub, time.Microsecond, func() error { _, _, err := srv.PublishedRange(from, from+49); return err }); err != nil {
			return err
		}
		acc := accs[len(accs)-1]
		if err := timeIt(&maxTPL, time.Millisecond, func() error { _, err := acc.MaxTPL(); return err }); err != nil {
			return err
		}
	}
	put("stream.report_ms", "ms", median(report))
	put("stream.max_wevent_ms", "ms", median(wevent))
	put("stream.tpl_range_us", "us", median(tpl))
	put("stream.published_range_us", "us", median(pub))
	put("core.max_tpl_ms", "ms", median(maxTPL))
	return nil
}

// applyTimings replays session 0's step records into a fresh
// identically built server and returns the mean µs per timed ApplyStep.
func (t *tracer) applyTimings(records []stream.StepRecord) (float64, error) {
	srv, err := t.in.sessions[0].config.Build()
	if err != nil {
		return 0, err
	}
	_, timedFrom := t.sessionEps()
	var total time.Duration
	for i, r := range records {
		t0 := time.Now()
		err := srv.ApplyStep(r)
		if i >= timedFrom[0] {
			total += time.Since(t0)
		}
		if err != nil {
			return 0, err
		}
	}
	return us(total) / float64(len(records)-timedFrom[0]), nil
}

// runTraced executes the traced run and returns the per-layer metrics.
func runTraced(ctx context.Context, e *env, w *workload, seed int64) (*result, error) {
	in, err := buildInputs(w, seed)
	if err != nil {
		return nil, err
	}
	t := &tracer{w: w, in: in, work: e.work, n: w.traceBatches}
	t.spans.t0 = time.Now()
	res := &result{Metrics: map[string]metric{}}
	put := func(name, unit string, v float64) { res.Metrics[name] = metric{Value: v, Unit: unit} }

	// The untraced phase runs before and after the traced one: their
	// mean cancels drift between phases (heap left by the previous
	// phase, disk write-back) out of the tracing overhead.
	var untracedWalls []float64
	var tracedWall time.Duration
	var steps int
	for i, traced := range []bool{false, true, false} {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		runtime.GC()
		wall, n, err := t.httpPhase(filepath.Join(e.work, fmt.Sprintf("http-%d", i)), traced, traced)
		if err != nil {
			return nil, err
		}
		steps = n
		if traced {
			tracedWall = wall
		} else {
			untracedWalls = append(untracedWalls, float64(wall))
		}
	}
	untracedWall := time.Duration(median(untracedWalls))
	fmt.Fprintf(os.Stderr, "perfbench: untraced phases %v and %v, traced %v\n", time.Duration(untracedWalls[0]), time.Duration(untracedWalls[1]), tracedWall)
	perStep := func(totalUS float64) float64 { return totalUS / float64(steps) }
	rtt := perStep(t.spans.timedUS("client"))
	handler := perStep(t.spans.timedUS("handler"))
	sessUS, err := t.sessionPhase(filepath.Join(e.work, "session"))
	if err != nil {
		return nil, err
	}
	streamUS, servers, records, err := t.streamPhase()
	if err != nil {
		return nil, err
	}
	coreUS, observeNS, evalNS, memo, accs0, err := t.coreTimings()
	if err != nil {
		return nil, err
	}
	lapUS, lapNS, err := t.laplaceTimings(seed)
	if err != nil {
		return nil, err
	}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}

	// Successively deeper entry points, outermost first; the last two
	// (accounting and noise) are siblings inside stream's collect.
	entry := []float64{rtt, handler, perStep(sessUS), perStep(streamUS), perStep(coreUS + lapUS)}
	self := selfTimes(entry)
	traced := us(tracedWall) / float64(steps)
	layers := map[string]float64{
		"service.wire_us_per_step":      self[0],
		"service.codec_us_per_step":     self[1],
		"service.durable_us_per_step":   self[2],
		"stream.self_us_per_step":       self[3],
		"core.observe_us_per_step":      perStep(coreUS),
		"mechanism.laplace_us_per_step": perStep(lapUS),
	}
	sum := 0.0
	for n, v := range layers {
		put(n, "us", v)
		sum += v
	}
	unattributed := traced - sum
	put("stream.collect_us_per_step", "us", perStep(streamUS))
	put("traced_us_per_step", "us", traced)
	put("untraced_us_per_step", "us", us(untracedWall)/float64(steps))
	put("unattributed_us_per_step", "us", unattributed)
	put("tracing_overhead_us_per_step", "us", traced-us(untracedWall)/float64(steps))
	put("core.observe_ns", "ns", observeNS)
	put("core.loss_eval_ns", "ns", evalNS)
	put("core.bpl_memo_hit_ratio", "ratio", memo)
	put("mechanism.laplace_ns_per_value", "ns", lapNS)

	if err := t.readTimings(put, servers[0], accs0, rand.New(rand.NewSource(seed))); err != nil {
		return nil, err
	}
	applyUS, err := t.applyTimings(records)
	if err != nil {
		return nil, err
	}
	put("stream.apply_step_us", "us", applyUS)
	if err := t.engineTimings(put); err != nil {
		return nil, err
	}
	if err := t.persistTimings(put); err != nil {
		return nil, err
	}

	names := make([]string, 0, len(layers))
	for n := range layers {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "perfbench: %s traced breakdown over %d steps (µs/step):\n", w.name, steps)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-32s %10.3f\n", n, layers[n])
	}
	ok := math.Abs(unattributed) <= reconcileTolerance*traced
	fmt.Fprintf(os.Stderr, "  %-32s %10.3f\n  %-32s %10.3f (layers + unattributed; tolerance ±%.0f%% of it for the unattributed part: reconciled=%v)\n  %-32s %10.3f\n",
		"unattributed", unattributed, "traced end-to-end", traced, reconcileTolerance*100, ok, "tracing overhead", traced-us(untracedWall)/float64(steps))

	if err := t.spans.write(filepath.Join(buildDir, "traces", fmt.Sprintf("%s-seed%d.jsonl", w.name, seed))); err != nil {
		return nil, err
	}
	res.Attempted, res.Failed = t.sent.attempted, t.sent.failed
	for _, e := range t.sent.errs {
		t.checks = append(t.checks, e)
	}
	for _, c := range t.checks {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", c)
	}
	res.Correct = res.Failed == 0 && len(t.checks) == 0
	return res, nil
}
