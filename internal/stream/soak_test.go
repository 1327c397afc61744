package stream

import (
	"testing"

	"repro/internal/chunked"
	"repro/internal/markov"
)

// TestSoakChunkedHistoryMillionSteps is the regression test for the
// chunked history storage: a single session ingesting soakSteps
// releases (1M+ without -race) must never re-copy settled history —
// the whole point of replacing the doubling slices — and every
// paginated read crossing chunk boundaries must agree bit-for-bit
// with the per-step accessors it is documented to batch.
func TestSoakChunkedHistoryMillionSteps(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	chain, err := markov.FromRows([][]float64{{0.8, 0.2}, {0.3, 0.7}})
	if err != nil {
		t.Fatal(err)
	}
	models := []AdversaryModel{
		{Backward: chain, Forward: chain},
		{Backward: chain, Forward: chain},
	}
	s, err := NewServer(2, 2, models, nil)
	if err != nil {
		t.Fatal(err)
	}

	const batch = 4096
	eps := 0.1
	steps := make([]BatchStep, batch)
	var firstBudgetAddr *float64
	var firstPublishedAddr *[]float64
	for done := 0; done < soakSteps; {
		n := soakSteps - done
		if n > batch {
			n = batch
		}
		for i := 0; i < n; i++ {
			e := eps
			steps[i] = BatchStep{Counts: []int{1, 1}, Eps: &e}
		}
		if _, err := s.CollectBatch(steps[:n]); err != nil {
			t.Fatalf("batch at %d steps: %v", done, err)
		}
		if done == 0 {
			// Element addresses inside the first chunk must survive the
			// rest of the run: appends may grow the pointer spine but
			// never move settled elements.
			firstBudgetAddr = &s.budgets.Chunk(0)[0]
			firstPublishedAddr = &s.published.Chunk(0)[0]
		}
		done += n
	}
	if got := s.T(); got != soakSteps {
		t.Fatalf("server at T=%d, want %d", got, soakSteps)
	}

	if &s.budgets.Chunk(0)[0] != firstBudgetAddr {
		t.Fatal("budgets chunk 0 moved during the soak")
	}
	if &s.published.Chunk(0)[0] != firstPublishedAddr {
		t.Fatal("published chunk 0 moved during the soak")
	}

	// Budget pagination: PublishedRange pages concatenated over the full
	// run must reproduce the one full-range read exactly. Page size 1000
	// does not divide the chunk size, so pages straddle every chunk
	// boundary.
	all, _ := publishedAll(t, s)
	if len(all) != soakSteps {
		t.Fatalf("full-range read returned %d budgets, want %d", len(all), soakSteps)
	}
	const page = 1000
	at := 0
	for from := 1; from <= soakSteps; from += page {
		to := from + page - 1
		if to > soakSteps {
			to = soakSteps
		}
		got, _, err := s.PublishedRange(from, to)
		if err != nil {
			t.Fatalf("PublishedRange(%d,%d): %v", from, to, err)
		}
		for i, v := range got {
			if v != all[at+i] {
				t.Fatalf("budget at t=%d: paged %v != full %v", at+i+1, v, all[at+i])
			}
		}
		at += len(got)
	}
	if at != soakSteps {
		t.Fatalf("pages covered %d steps, want %d", at, soakSteps)
	}

	// Histogram pagination at chunk boundaries: the paged read must
	// agree with single-step reads exactly where the storage switches
	// chunks.
	for _, boundary := range []int{chunked.Size, 2 * chunked.Size, 3 * chunked.Size} {
		from, to := boundary-2, boundary+3
		epsPage, hists, err := s.PublishedRange(from, to)
		if err != nil {
			t.Fatalf("PublishedRange(%d,%d): %v", from, to, err)
		}
		for i := range hists {
			tt := from + i
			_, one, err := s.PublishedRange(tt, tt)
			if err != nil {
				t.Fatalf("PublishedRange(%d,%d): %v", tt, tt, err)
			}
			single := one[0]
			if len(single) != len(hists[i]) {
				t.Fatalf("histogram at t=%d: paged len %d != single len %d", tt, len(hists[i]), len(single))
			}
			for j := range single {
				if single[j] != hists[i][j] {
					t.Fatalf("histogram at t=%d bin %d: paged %v != single %v", tt, j, hists[i][j], single[j])
				}
			}
			if b := all[tt-1]; b != epsPage[i] {
				t.Fatalf("budget at t=%d: paged %v != single %v", tt, epsPage[i], b)
			}
		}
	}

	// TPL pagination: UserTPLRange pages concatenated must reproduce
	// UserTPLSeries bit-for-bit across every chunk boundary.
	series, err := s.UserTPLSeries(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != soakSteps {
		t.Fatalf("UserTPLSeries returned %d points, want %d", len(series), soakSteps)
	}
	at = 0
	for from := 1; from <= soakSteps; from += page {
		to := from + page - 1
		if to > soakSteps {
			to = soakSteps
		}
		got, err := s.UserTPLRange(0, from, to)
		if err != nil {
			t.Fatalf("UserTPLRange(%d,%d): %v", from, to, err)
		}
		for i, v := range got {
			if v != series[at+i] {
				t.Fatalf("TPL at t=%d: paged %v != series %v", at+i+1, v, series[at+i])
			}
		}
		at += len(got)
	}
}
