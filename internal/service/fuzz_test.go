package service

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/persist"
	"repro/internal/stream"
)

// FuzzArenaDecodeRecycling is the pooled-decoder safety fuzzer: it
// pushes arbitrary NDJSON through a DIRTY, recycled arena and requires
// the result to be indistinguishable from a fresh decode — same steps
// (deep-equal, including values/counts carved from the int slab and eps
// boxed in the eps slab) or the same decision to fail. The arena is
// dirtied two ways before the interesting decode: its slabs are filled
// with 0xFF garbage at full capacity, and a sacrificial canary batch is
// decoded and released through it first — so any stale length, aliased
// BatchStep slice, or un-truncated slab from a previous request shows
// up as corrupted output here.
func FuzzArenaDecodeRecycling(f *testing.F) {
	f.Add([]byte(`{"counts":[1,2,3],"eps":0.5}`))
	f.Add([]byte(`{"values":[0,1,1,0]}` + "\n" + `{"values":[1,1,0,0],"eps":0.25}`))
	f.Add([]byte(`{"counts":[5],"eps":1e-7}` + "\n\n" + `{"counts":[7]}`))
	f.Add([]byte(`{"counts":[1], "unknown":true}`))
	f.Add([]byte(`{"counts":[1],"eps":`))
	f.Add([]byte("not json\n{\"counts\":[2],\"eps\":0.1}"))
	f.Add([]byte("\n \n\t\n"))
	f.Add([]byte(`{"values":[9223372036854775807],"eps":-0.5}`))

	f.Fuzz(func(t *testing.T, raw []byte) {
		// Reference: a pristine arena decoding a private copy of raw.
		rawCopy := append([]byte(nil), raw...)
		fresh := new(batchArena)
		wantSteps, wantErr := fresh.decodeNDJSONArena(rawCopy)
		want := snapshotSteps(wantSteps)

		// Candidate: an arena that has already lived a little.
		dirty := new(batchArena)
		dirtyArena(dirty)
		canary := []byte(`{"counts":[11,22,33,44],"eps":0.125}` + "\n" + `{"values":[1,0,1,0]}`)
		if _, err := dirty.decodeNDJSONArena(canary); err != nil {
			t.Fatalf("canary decode: %v", err)
		}
		dirty.release()
		reclaimed := getArena() // usually the arena just released
		dirtyArena(reclaimed)
		gotSteps, gotErr := reclaimed.decodeNDJSONArena(raw)
		got := snapshotSteps(gotSteps)

		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("recycled arena changed the outcome: fresh err=%v, recycled err=%v", wantErr, gotErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("recycled arena leaked state into the decode:\nfresh:    %v\nrecycled: %v", want, got)
		}
		reclaimed.release()
	})
}

// dirtyArena fills every slab of a (released or fresh) arena with
// garbage up to its full capacity, then restores the empty lengths — a
// decoder that reads one stale byte past what it wrote will see 0xFF
// (or a poisoned step), not zeroes.
func dirtyArena(a *batchArena) {
	a.body = a.body[:cap(a.body)]
	for i := range a.body {
		a.body[i] = 0xFF
	}
	a.body = a.body[:0]
	a.ints = a.ints[:cap(a.ints)]
	for i := range a.ints {
		a.ints[i] = -1 << 62
	}
	a.ints = a.ints[:0]
	a.eps = a.eps[:cap(a.eps)]
	poison := -12345.6789
	for i := range a.eps {
		a.eps[i] = poison
	}
	a.eps = a.eps[:0]
	a.resp = a.resp[:cap(a.resp)]
	for i := range a.resp {
		a.resp[i] = 0xFF
	}
	a.resp = a.resp[:0]
	a.steps = a.steps[:cap(a.steps)]
	for i := range a.steps {
		a.steps[i] = stream.BatchStep{Values: []int{-1}, Counts: []int{-1}, Eps: &poison}
	}
	a.steps = a.steps[:0]
}

// snapshotSteps deep-copies decoded steps into a comparable, arena-free
// form (eps pointers flattened to values).
func snapshotSteps(steps []stream.BatchStep) []string {
	if steps == nil {
		return nil
	}
	out := make([]string, len(steps))
	for i, st := range steps {
		eps := "nil"
		if st.Eps != nil {
			eps = fmt.Sprintf("%x", *st.Eps)
		}
		out[i] = fmt.Sprintf("values=%v counts=%v eps=%s", st.Values, st.Counts, eps)
	}
	return out
}

// TestArenaReleaseZeroesSteps pins the release contract directly: after
// release, no pooled BatchStep retains a decoded slice and every slab
// is empty.
func TestArenaReleaseZeroesSteps(t *testing.T) {
	a := new(batchArena)
	if _, err := a.decodeNDJSONArena([]byte(`{"counts":[1,2],"eps":0.5}`)); err != nil {
		t.Fatal(err)
	}
	if len(a.steps) == 0 {
		t.Fatal("decode produced no steps")
	}
	a.release()
	b := getArena()
	if len(b.steps) != 0 || len(b.body) != 0 || len(b.ints) != 0 || len(b.eps) != 0 || len(b.resp) != 0 {
		t.Fatalf("released arena not empty: steps=%d body=%d ints=%d eps=%d resp=%d",
			len(b.steps), len(b.body), len(b.ints), len(b.eps), len(b.resp))
	}
	hidden := b.steps[:cap(b.steps)]
	for i, st := range hidden {
		if st.Values != nil || st.Counts != nil || st.Eps != nil {
			t.Fatalf("pooled step %d still references decoded memory: %+v", i, st)
		}
	}
	b.release()
}

// TestArenaOversizedSlabsDropped: slabs past the pooling caps must not
// be recycled (they would pin tens of MB per pooled arena).
func TestArenaOversizedSlabsDropped(t *testing.T) {
	a := new(batchArena)
	a.body = make([]byte, 0, maxPooledBody+1)
	a.ints = make([]int, 0, maxPooledInts+1)
	a.resp = make([]byte, 0, maxPooledResp+1)
	a.release()
	if a.body != nil || a.ints != nil || a.resp != nil {
		t.Fatalf("oversized slabs survived release: body=%d ints=%d resp=%d",
			cap(a.body), cap(a.ints), cap(a.resp))
	}
}

// deterministic seed-corpus run so the fuzz property is exercised on
// every plain `go test`, not only under -fuzz.
func TestArenaDecodeRecyclingSeeds(t *testing.T) {
	seeds := [][]byte{
		[]byte(`{"counts":[1,2,3],"eps":0.5}`),
		[]byte(`{"values":[0,1,1,0]}` + "\n" + `{"values":[1,1,0,0],"eps":0.25}`),
		[]byte(`{"counts":[5],"eps":1e-7}` + "\n\n" + `{"counts":[7]}`),
		[]byte(`{"counts":[1],"eps":`),
		[]byte("\n \n\t\n"),
	}
	for _, raw := range seeds {
		fresh := new(batchArena)
		wantSteps, wantErr := fresh.decodeNDJSONArena(append([]byte(nil), raw...))
		dirty := new(batchArena)
		dirtyArena(dirty)
		gotSteps, gotErr := dirty.decodeNDJSONArena(raw)
		if (gotErr == nil) != (wantErr == nil) || !reflect.DeepEqual(snapshotSteps(gotSteps), snapshotSteps(wantSteps)) {
			t.Fatalf("seed %q: fresh (%v, %v) != dirty (%v, %v)",
				bytes.TrimSpace(raw), snapshotSteps(wantSteps), wantErr, snapshotSteps(gotSteps), gotErr)
		}
	}
}

// FuzzRestoreJournalRecord feeds arbitrary bytes as the body of a
// checksum-valid journal record behind a real base: folding it must
// never panic, a body that does not decode to a batchRecord must never
// restore, and a session that does restore must hold exactly the base's
// steps or the record's, remember the record's key when the steps it
// names are restored, and answer its reads.
func FuzzRestoreJournalRecord(f *testing.F) {
	template := f.TempDir()
	r := durableRegistry(f, template, 1<<20)
	s, err := r.Create(deltaTestConfig("sess"))
	if err != nil {
		f.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 48; i++ {
		if _, _, err := s.CollectBatch(fmt.Sprintf("k%d", i), randomBatch(rng, 5, 4)); err != nil {
			f.Fatal(err)
		}
	}
	if _, err := s.SnapshotNow(); err != nil { // the base, at T > 0
		f.Fatal(err)
	}
	base, err := os.ReadFile(filepath.Join(template, "sess.snap"))
	if err != nil {
		f.Fatal(err)
	}
	baseT := s.Server().T()
	// The seeds. The first is the journal's record of the next keyed
	// batch, as the session wrote it; the others vary it.
	if _, _, err := s.CollectBatch("j0", randomBatch(rng, 5, 4)); err != nil {
		f.Fatal(err)
	}
	journal, err := os.ReadFile(filepath.Join(template, "sess.journal"))
	if err != nil {
		f.Fatal(err)
	}
	_, keyed, err := persist.DecodeEnvelope(bytes.NewReader(journal))
	if err != nil {
		f.Fatal(err)
	}
	var rec batchRecord
	if err := gobDecode(keyed, &rec); err != nil {
		f.Fatal(err)
	}
	history := s.Server().Snapshot()
	step := func(t int) stream.StepRecord {
		return stream.StepRecord{T: t, Eps: history.Budgets[t-1], Published: history.Published[t-1], NoiseDraws: history.RNG.Draws}
	}
	seed := func(rec batchRecord) {
		body, err := gobEncode(rec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Add(keyed)
	seed(batchRecord{Steps: rec.Steps}) // unkeyed
	// At or before the base: a compaction's base beside the journal it
	// covers.
	seed(batchRecord{Steps: []stream.StepRecord{step(baseT - 1), step(baseT)}, Idem: &idemRecord{Key: "old", FirstT: baseT - 1, Planned: make([]bool, 2)}})
	// Across the base: the covered steps are skipped, the rest fold.
	seed(batchRecord{Steps: append([]stream.StepRecord{step(baseT)}, rec.Steps...), Idem: &idemRecord{Key: "across", FirstT: baseT, Planned: make([]bool, 1+len(rec.Steps))}})
	seed(batchRecord{Steps: rec.Steps, Idem: &idemRecord{Key: "empty", FirstT: baseT + 1}})
	// A key the base's memory already holds.
	seed(batchRecord{Steps: rec.Steps, Idem: &idemRecord{Key: "k3", Hash: rec.Idem.Hash, FirstT: baseT + 1, Planned: rec.Idem.Planned}})
	f.Add([]byte{})
	f.Add([]byte("not a journal record"))

	f.Fuzz(func(t *testing.T, body []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "sess.snap"), base, 0o644); err != nil {
			t.Fatal(err)
		}
		var log bytes.Buffer
		if err := persist.EncodeEnvelope(&log, batchSchemaVersion, body); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "sess.journal"), log.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		r := durableRegistry(t, dir, 1<<20)
		defer r.Close()
		restored, _ := r.RestoreAll()
		if len(restored) == 0 {
			return
		}
		var rec batchRecord
		if err := gobDecode(body, &rec); err != nil {
			t.Fatalf("restored from a body that is not a journal record (%v)", err)
		}
		s, err := r.Get("sess")
		if err != nil {
			t.Fatal(err)
		}
		want := baseT
		for _, st := range rec.Steps {
			if st.T > baseT {
				want = st.T
			}
		}
		if T := s.Server().T(); T != want {
			t.Fatalf("restored T=%d, want %d (base at %d)", T, want, baseT)
		}
		if len(s.idem.entries()) > idemCacheSize {
			t.Fatalf("restored memory holds %d keys", len(s.idem.entries()))
		}
		if e := rec.Idem; e != nil && e.FirstT > baseT && e.lastT() <= want {
			if got, ok := s.idem.get(e.Key); !ok || got.Hash != e.Hash || got.FirstT != e.FirstT {
				t.Fatalf("restored memory lost the record's key %q", e.Key)
			}
		}
		if _, err := s.Server().Report(); err != nil {
			t.Fatalf("restored session cannot report: %v", err)
		}
	})
}
