package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strconv"

	"repro/internal/loadgen"
	"repro/internal/markov"
	"repro/internal/service"
)

// workload is one traffic shape. Every count below is a fixed amount of
// work: a run never measures "as much as fits in a time window",
// because per-step cost grows with history length T and a window would
// push faster code deeper into history and charge it for that.
type workload struct {
	name string
	// durable runs tplserved with a state dir, the group-commit journal
	// and the engine cache; otherwise the server is ephemeral.
	durable bool
	// setupSnapshotEvery is the -snapshot-every flag while setup builds
	// history (0 = the shipped default). Timed phases always run with
	// the shipped default.
	setupSnapshotEvery int
	// batchSteps is the step count of one timed ingest request.
	batchSteps int
	// historyBatches per session (of the session's history bodies) are
	// built during setup, followed by an explicit snapshot and
	// tailBatches ordinary batches, so every restart replays the same
	// journal tail.
	historyBatches, tailBatches int
	// warmupBatches per writer run after setup, untimed.
	warmupBatches int
	// ingestBatches per writer make one round of the timed ingest phase
	// (0: none); rounds > 1 repeats it on re-created sessions, so every
	// round starts from T = 0 and history memory stays bounded.
	ingestBatches, rounds int
	// readMix is the number of reads in the read phase (ingest
	// workloads) or per restart cycle (restart-and-read).
	readMix int
	// restarts is the number of SIGKILL restarts; cycleBatches is what
	// the writer sends between two of them.
	restarts, cycleBatches int
	// setups is how often set-up runs per run; setup_s is their median.
	setups int
	// traceBatches per session are the timed batches of a traced run.
	traceBatches int
	// sessions builds the seeded session specs.
	sessions func(rng *rand.Rand) ([]*sessionSpec, error)
}

// cohortRef is what the leakage reference needs about one cohort: a
// member to query and the chains its accountant is built from.
type cohortRef struct {
	firstUser         int
	backward, forward *markov.Chain
}

// batchBody is one pre-encoded NDJSON steps body and the step content
// it encodes (the reference accountant and the traced run's direct
// calls need the decoded form).
type batchBody struct {
	body   []byte
	eps    []float64
	counts [][]int
}

// sessionSpec is one session of a workload, with every input the run
// sends to it generated before the server starts.
type sessionSpec struct {
	name    string
	config  service.SessionConfig
	create  []byte // POST /v2/sessions body
	domain  int
	users   int
	cohorts []cohortRef
	history []batchBody // setup history bodies, cycled
	pool    []batchBody // ordinary batch bodies, cycled
}

// poolBodies is how many distinct ordinary bodies a session cycles
// through. Keys stay distinct per batch; the bodies repeat so the
// pre-encoded input of a long run stays a few MB.
const poolBodies = 16

var workloads = map[string]*workload{
	"durable-ingest": {
		name:          "durable-ingest",
		durable:       true,
		batchSteps:    16,
		warmupBatches: 8,
		ingestBatches: 1600,
		rounds:        1,
		readMix:       1200,
		restarts:      15,
		cycleBatches:  3,
		setups:        7,
		traceBatches:  256,
		sessions:      durableSessions,
	},
	"wide-accounting": {
		name:          "wide-accounting",
		batchSteps:    256,
		warmupBatches: 2,
		ingestBatches: 192,
		rounds:        10,
		readMix:       1200,
		restarts:      5,
		setups:        3,
		traceBatches:  48,
		sessions:      wideSessions,
	},
	"restart-and-read": {
		name:               "restart-and-read",
		durable:            true,
		setupSnapshotEvery: 1 << 30,
		batchSteps:         16,
		historyBatches:     64,
		tailBatches:        3,
		readMix:            400,
		restarts:           16,
		cycleBatches:       23,
		setups:             3,
		traceBatches:       32,
		sessions:           restartSessions,
	},
}

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"durable-ingest", "wide-accounting", "restart-and-read"}

// scaled returns the workload with its timed work scaled by seconds
// relative to the 10-second reference the counts above are sized for.
// The scaling is a pure function of the flag, so two runs with the same
// flag do identical work.
func (w *workload) scaled(seconds int) *workload {
	c := *w
	f := float64(seconds) / 10
	scale := func(n, mult int) int {
		if n == 0 {
			return 0
		}
		v := int(math.Round(float64(n)*f/float64(mult))) * mult
		return max(v, mult)
	}
	// Ingest batch counts stay multiples of four so the ingest phase
	// ends on a snapshot boundary (16-step batches, snapshot every 64).
	if w.rounds > 1 {
		c.rounds = scale(w.rounds, 1)
	} else {
		c.ingestBatches = scale(w.ingestBatches, 4)
	}
	c.readMix = scale(w.readMix, 1)
	if w.ingestBatches == 0 {
		c.restarts = scale(w.restarts, 1)
	}
	return &c
}

// durableSessions: two sessions of 100k users in loadgen's 10-cohort,
// domain-4 shape (lazy backward chains), one constant budget each, so
// the BPL recurrence saturates and the accountant memo hits.
func durableSessions(rng *rand.Rand) ([]*sessionSpec, error) {
	var out []*sessionSpec
	for i := 0; i < 2; i++ {
		cc, err := loadgen.SessionConfig(fmt.Sprintf("ingest-%d", i), 100_000, 4, 10, 0.4, rng.Int63n(1<<40)+1)
		if err != nil {
			return nil, err
		}
		cfg := service.SessionConfig{Name: cc.Name, Domain: cc.Domain, Seed: cc.Seed}
		for _, co := range cc.Cohorts {
			var m service.ModelConfig
			if co.Model.Backward != nil {
				if m.Backward, err = markov.FromRows(co.Model.Backward.Rows); err != nil {
					return nil, err
				}
			}
			cfg.Cohorts = append(cfg.Cohorts, service.CohortConfig{Users: co.Users, Model: m})
		}
		eps := roundTo(0.05+0.1*rng.Float64(), 1e4)
		s, err := newSession(cfg, rng, 16, func(*rand.Rand) float64 { return eps }, 0)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// wideSessions: two sessions, each with 8 cohorts whose backward and
// forward chains are seeded dense random matrices at domain 128, and a
// fresh budget every step, so the BPL argument never repeats and every
// step evaluates every cohort's compiled engine. The two sessions
// declare the same 8 models, as tenants of one fleet would, so set-up
// compiles 16 engines. The population is small because session
// creation costs O(users × domain²) (stream.NewServerCached builds a
// per-user key from both chains' full fingerprints); accounting cost
// does not depend on it.
func wideSessions(rng *rand.Rand) ([]*sessionSpec, error) {
	const domain, cohorts, users = 128, 8, 2048
	models := make([]service.ModelConfig, cohorts)
	for k := range models {
		b, err := markov.UniformRandom(rng, domain)
		if err != nil {
			return nil, err
		}
		f, err := markov.UniformRandom(rng, domain)
		if err != nil {
			return nil, err
		}
		models[k] = service.ModelConfig{Backward: b, Forward: f}
	}
	var out []*sessionSpec
	for i := 0; i < 2; i++ {
		cfg := service.SessionConfig{Name: fmt.Sprintf("wide-%d", i), Domain: domain, Seed: rng.Int63n(1<<40) + 1}
		for _, m := range models {
			cfg.Cohorts = append(cfg.Cohorts, service.CohortConfig{Users: users / cohorts, Model: m})
		}
		s, err := newSession(cfg, rng, 256, func(r *rand.Rand) float64 { return roundTo(0.05+0.2*r.Float64(), 1e6) }, 0)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// restartSessions: four sessions at domain 16 whose cohorts all carry
// correlated backward (lazy) and forward (smoothed strongest) chains.
// The correlation strengths are fixed per cohort; the seed draws the
// forward chains' structure and the budgets.
func restartSessions(rng *rand.Rand) ([]*sessionSpec, error) {
	const domain, cohorts, users = 16, 4, 20_000
	var out []*sessionSpec
	for i := 0; i < 4; i++ {
		cfg := service.SessionConfig{Name: fmt.Sprintf("deep-%d", i), Domain: domain, Seed: rng.Int63n(1<<40) + 1}
		for k := 0; k < cohorts; k++ {
			b, err := markov.Lazy(domain, 0.5+0.1*float64(k))
			if err != nil {
				return nil, err
			}
			f, err := markov.Smoothed(rng, domain, 1)
			if err != nil {
				return nil, err
			}
			cfg.Cohorts = append(cfg.Cohorts, service.CohortConfig{Users: users / cohorts, Model: service.ModelConfig{Backward: b, Forward: f}})
		}
		eps := roundTo(0.05+0.1*rng.Float64(), 1e4)
		s, err := newSession(cfg, rng, 16, func(*rand.Rand) float64 { return eps }, 512)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// roundTo rounds x to 1/scale, keeping request bodies short. The
// rounded value is what the body carries and the reference charges.
func roundTo(x, scale float64) float64 { return math.Round(x*scale) / scale }

// newSession encodes a session's create body and its pre-encoded
// batch bodies: poolBodies bodies of batchSteps steps, plus (when
// historySteps > 0) history bodies of historySteps steps.
func newSession(cfg service.SessionConfig, rng *rand.Rand, batchSteps int, eps func(*rand.Rand) float64, historySteps int) (*sessionSpec, error) {
	create, err := json.Marshal(cfg)
	if err != nil {
		return nil, fmt.Errorf("encoding session %s: %w", cfg.Name, err)
	}
	s := &sessionSpec{name: cfg.Name, config: cfg, create: create, domain: cfg.Domain}
	for _, co := range cfg.Cohorts {
		s.cohorts = append(s.cohorts, cohortRef{firstUser: s.users, backward: co.Model.Backward, forward: co.Model.Forward})
		s.users += co.Users
	}
	for i := 0; i < poolBodies; i++ {
		s.pool = append(s.pool, encodeBatch(rng, s.domain, s.users, batchSteps, eps))
	}
	if historySteps > 0 {
		for i := 0; i < 4; i++ {
			s.history = append(s.history, encodeBatch(rng, s.domain, s.users, historySteps, eps))
		}
	}
	return s, nil
}

// encodeBatch draws one batch of count histograms (domain bins summing
// to users) and budgets, and encodes it as an NDJSON steps body.
func encodeBatch(rng *rand.Rand, domain, users, steps int, eps func(*rand.Rand) float64) batchBody {
	var b batchBody
	w := make([]float64, domain)
	for i := 0; i < steps; i++ {
		total := 0.0
		for k := range w {
			w[k] = 0.5 + rng.Float64()
			total += w[k]
		}
		counts := make([]int, domain)
		left := users
		for k := 1; k < domain; k++ {
			counts[k] = int(float64(users) * w[k] / total)
			left -= counts[k]
		}
		counts[0] = left
		e := eps(rng)
		b.counts = append(b.counts, counts)
		b.eps = append(b.eps, e)
		b.body = appendStepLine(b.body, counts, e)
	}
	return b
}

// appendStepLine appends one NDJSON step object. The budget is
// formatted as the shortest decimal that parses back to the same bits.
func appendStepLine(dst []byte, counts []int, eps float64) []byte {
	dst = append(dst, `{"counts":[`...)
	for k, c := range counts {
		if k > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(c), 10)
	}
	dst = append(dst, `],"eps":`...)
	dst = strconv.AppendFloat(dst, eps, 'g', -1, 64)
	return append(dst, '}', '\n')
}

// idemKeys pre-generates n distinct Idempotency-Keys for one session.
func idemKeys(rng *rand.Rand, session string, n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("%s-%016x-%d", session, rng.Uint64(), i)
	}
	return keys
}

// inputs is everything a run sends, generated from the seed alone.
type inputs struct {
	sessions []*sessionSpec
	keys     [][]string // per session, one per batch the run can send
}

// buildInputs generates a workload's inputs from the seed.
func buildInputs(w *workload, seed int64) (*inputs, error) {
	rng := rand.New(rand.NewSource(seed))
	sessions, err := w.sessions(rng)
	if err != nil {
		return nil, err
	}
	in := &inputs{sessions: sessions}
	perSession := w.historyBatches + w.tailBatches + w.warmupBatches + w.ingestBatches + (w.restarts+1)*max(w.cycleBatches, w.tailBatches, w.warmupBatches)
	for _, s := range sessions {
		in.keys = append(in.keys, idemKeys(rng, s.name, perSession))
	}
	return in, nil
}
