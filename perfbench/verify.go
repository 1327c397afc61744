package main

import (
	"encoding/base64"
	"fmt"
	"math"
	"math/rand"
	"strconv"

	"repro/internal/core"
)

// cursor encodes the v2 pagination cursor "resume at step t".
func cursor(t int) string {
	return base64.RawURLEncoding.EncodeToString([]byte("t:" + strconv.Itoa(t)))
}

// referenceAccountants feeds each cohort's chains and the session's
// acknowledged budget sequence into fresh in-process accountants.
func referenceAccountants(sr *sessionRun) ([]*core.Accountant, error) {
	accs := make([]*core.Accountant, len(sr.spec.cohorts))
	for i, co := range sr.spec.cohorts {
		accs[i] = core.NewAccountant(co.backward, co.forward)
		for _, e := range sr.eps {
			if _, err := accs[i].Observe(e); err != nil {
				return nil, err
			}
		}
	}
	return accs, nil
}

// checkT verifies that every session's step count equals the steps
// acknowledged to it: an ack is durable, so this holds after every
// SIGKILL restart too.
func checkT(c *conn, runs []*sessionRun) error {
	for _, sr := range runs {
		var sum struct {
			T int `json:"t"`
		}
		if err := c.getJSON("/v2/sessions/"+sr.spec.name, &sum); err != nil {
			return err
		}
		if sum.T != sr.acked {
			return fmt.Errorf("session %s: t=%d after %d acknowledged steps", sr.spec.name, sum.T, sr.acked)
		}
	}
	return nil
}

// tplPageLimit is the page size of the TPL pages the checks and the
// read mix request: the server's largest, so a page read does enough
// work that scheduling jitter does not dominate its latency.
const tplPageLimit = 500

// checkLeakage verifies T, then reads back each session's
// report.event_level_alpha and one TPL page per cohort (at a seeded
// cursor) and requires them to equal, bit for bit, a core.Accountant
// reference fed the same chains and budgets.
func checkLeakage(c *conn, runs []*sessionRun, rng *rand.Rand) error {
	if err := checkT(c, runs); err != nil {
		return err
	}
	for _, sr := range runs {
		accs, err := referenceAccountants(sr)
		if err != nil {
			return err
		}
		want := math.Inf(-1)
		for _, a := range accs {
			v, err := a.MaxTPL()
			if err != nil {
				return err
			}
			want = math.Max(want, v)
		}
		var rep struct {
			T     int     `json:"t"`
			Alpha float64 `json:"event_level_alpha"`
		}
		if err := c.getJSON("/v2/sessions/"+sr.spec.name+"/report", &rep); err != nil {
			return err
		}
		if rep.T != sr.acked || math.Float64bits(rep.Alpha) != math.Float64bits(want) {
			return fmt.Errorf("session %s: report t=%d alpha=%v, reference t=%d alpha=%v", sr.spec.name, rep.T, rep.Alpha, sr.acked, want)
		}
		for k, co := range sr.spec.cohorts {
			from := 1 + rng.Intn(sr.acked)
			var page struct {
				Items []struct {
					T   int     `json:"t"`
					TPL float64 `json:"tpl"`
				} `json:"items"`
			}
			path := fmt.Sprintf("/v2/sessions/%s/tpl?user=%d&cursor=%s&limit=%d", sr.spec.name, co.firstUser, cursor(from), tplPageLimit)
			if err := c.getJSON(path, &page); err != nil {
				return err
			}
			if wantLen := min(tplPageLimit, sr.acked-from+1); len(page.Items) != wantLen {
				return fmt.Errorf("session %s cohort %d: TPL page from %d has %d items, want %d", sr.spec.name, k, from, len(page.Items), wantLen)
			}
			for i, it := range page.Items {
				ref, err := accs[k].TPL(from + i)
				if err != nil {
					return err
				}
				if it.T != from+i || math.Float64bits(it.TPL) != math.Float64bits(ref) {
					return fmt.Errorf("session %s cohort %d: TPL(%d)=%v, reference TPL(%d)=%v", sr.spec.name, k, it.T, it.TPL, from+i, ref)
				}
			}
		}
	}
	return nil
}
