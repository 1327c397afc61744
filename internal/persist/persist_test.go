package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

func testStore(t *testing.T) *Store {
	t.Helper()
	s, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestEnvelopeRoundTrip(t *testing.T) {
	bodies := [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte{0xAB}, 1<<16)}
	for _, body := range bodies {
		var buf bytes.Buffer
		if err := EncodeEnvelope(&buf, 7, body); err != nil {
			t.Fatal(err)
		}
		version, back, err := DecodeEnvelope(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if version != 7 || !bytes.Equal(back, body) {
			t.Fatalf("round trip mangled: version %d, %d bytes", version, len(back))
		}
	}
}

func TestEnvelopeRejectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	if err := EncodeEnvelope(&buf, 1, []byte("the leakage series")); err != nil {
		t.Fatal(err)
	}
	wire := buf.Bytes()

	// Every truncation fails with ErrTruncated.
	for cut := 0; cut < len(wire); cut++ {
		if _, _, err := DecodeEnvelope(bytes.NewReader(wire[:cut])); !errors.Is(err, ErrTruncated) {
			t.Fatalf("truncation at %d: %v", cut, err)
		}
	}
	// Every single-bit flip fails with a typed error (magic, length,
	// checksum or body corruption — never a silent success, because the
	// checksum covers the body and the header fields guard themselves).
	for i := 0; i < len(wire); i++ {
		for bit := 0; bit < 8; bit++ {
			flipped := append([]byte(nil), wire...)
			flipped[i] ^= 1 << bit
			_, _, err := DecodeEnvelope(bytes.NewReader(flipped))
			switch {
			case err == nil:
				t.Fatalf("bit flip at byte %d bit %d decoded successfully", i, bit)
			case errors.Is(err, ErrBadMagic), errors.Is(err, ErrChecksum),
				errors.Is(err, ErrTruncated), errors.Is(err, ErrTooLarge):
			default:
				t.Fatalf("bit flip at byte %d bit %d: untyped error %v", i, bit, err)
			}
		}
	}
	if _, _, err := DecodeEnvelope(bytes.NewReader(nil)); !errors.Is(err, ErrTruncated) {
		t.Fatalf("empty input: %v", err)
	}
}

// withBodyLength returns a copy of an envelope with its length field
// set to n (the checksum no longer matches, but the length is checked
// first).
func withBodyLength(wire []byte, n uint64) []byte {
	out := append([]byte(nil), wire...)
	binary.LittleEndian.PutUint64(out[12:], n)
	return out
}

// TestLoadSnapshotLengthPastFile: LoadSnapshot reads a body into one
// buffer of the declared length, so a length field the file cannot
// back must fail with ErrTruncated before that buffer is allocated —
// a flipped bit must not cost a gigabyte. Every truncation of a good
// file fails the same way.
func TestLoadSnapshotLengthPastFile(t *testing.T) {
	s := testStore(t)
	if err := s.SaveSnapshot("s", 1, []byte("the leakage series")); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(s.Dir(), "s"+snapSuffix)
	wire, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, withBodyLength(wire, 1<<30), 0o644); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err = s.LoadSnapshot("s")
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("length past the file: %v, want ErrTruncated", err)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > 64<<10 {
		t.Fatalf("refusing a 1 GiB length field allocated %d bytes", n)
	}
	for cut := 0; cut < len(wire); cut++ {
		if err := os.WriteFile(path, wire[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := s.LoadSnapshot("s"); !errors.Is(err, ErrTruncated) {
			t.Fatalf("truncation at %d: %v", cut, err)
		}
	}
}

func TestStoreSaveLoadList(t *testing.T) {
	s := testStore(t)
	if _, _, err := s.LoadSnapshot("ghost"); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("missing snapshot: %v", err)
	}
	if err := s.SaveSnapshot("alpha", 3, []byte("state-a")); err != nil {
		t.Fatal(err)
	}
	if err := s.SaveSnapshot("beta", 3, []byte("state-b")); err != nil {
		t.Fatal(err)
	}
	// Overwrite is atomic-replace: the new body wins.
	if err := s.SaveSnapshot("alpha", 4, []byte("state-a2")); err != nil {
		t.Fatal(err)
	}
	version, body, err := s.LoadSnapshot("alpha")
	if err != nil {
		t.Fatal(err)
	}
	if version != 4 || string(body) != "state-a2" {
		t.Fatalf("got version %d body %q", version, body)
	}
	names, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != "alpha" || names[1] != "beta" {
		t.Fatalf("List = %v", names)
	}
	if err := s.Remove("alpha"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.LoadSnapshot("alpha"); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("after Remove: %v", err)
	}
	if err := s.Remove("alpha"); err != nil {
		t.Fatalf("double Remove: %v", err)
	}
}

func TestStoreRejectsHostileNames(t *testing.T) {
	s := testStore(t)
	for _, name := range []string{"", ".", "..", "a/b", `a\b`, "../escape"} {
		if err := s.SaveSnapshot(name, 1, nil); err == nil {
			t.Fatalf("name %q accepted", name)
		}
		if _, _, err := s.LoadSnapshot(name); err == nil {
			t.Fatalf("load of %q accepted", name)
		}
	}
}

// TestStoreIgnoresStrayTemp: a crash can leave a .snap.tmp behind; it
// must neither be listed nor shadow the last good snapshot.
func TestStoreIgnoresStrayTemp(t *testing.T) {
	s := testStore(t)
	if err := s.SaveSnapshot("sess", 1, []byte("good")); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(s.Dir(), "sess"+snapTmpSuffix), []byte("torn garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	names, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != "sess" {
		t.Fatalf("List = %v", names)
	}
	if _, body, err := s.LoadSnapshot("sess"); err != nil || string(body) != "good" {
		t.Fatalf("load: %q, %v", body, err)
	}
}

func TestJournalAppendReplayReset(t *testing.T) {
	s := testStore(t)
	// Replay of a journal that never existed: zero records, no error.
	res, err := s.ReplayJournal("sess", func(uint32, []byte) error { t.Fatal("callback on empty journal"); return nil })
	if err != nil || res.Records != 0 || res.Torn {
		t.Fatalf("empty replay: %+v, %v", res, err)
	}
	j, err := s.OpenJournal("sess")
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	want := [][]byte{[]byte("rec-1"), []byte("rec-2"), []byte("rec-3")}
	for _, rec := range want {
		if err := j.Append(2, rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	var got [][]byte
	res, err = s.ReplayJournal("sess", func(version uint32, body []byte) error {
		if version != 2 {
			t.Fatalf("record version %d", version)
		}
		got = append(got, append([]byte(nil), body...))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Torn || res.Records != len(want) {
		t.Fatalf("replay: %+v", res)
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d: %q != %q", i, got[i], want[i])
		}
	}
	// Reset empties it; appends continue to work afterwards.
	if err := j.Reset(); err != nil {
		t.Fatal(err)
	}
	res, err = s.ReplayJournal("sess", func(uint32, []byte) error { return nil })
	if err != nil || res.Records != 0 {
		t.Fatalf("after reset: %+v, %v", res, err)
	}
	if err := j.Append(2, []byte("post-reset")); err != nil {
		t.Fatal(err)
	}
	res, err = s.ReplayJournal("sess", func(uint32, []byte) error { return nil })
	if err != nil || res.Records != 1 {
		t.Fatalf("after reset+append: %+v, %v", res, err)
	}
}

// TestJournalTornTail simulates a crash mid-append at every possible
// byte boundary of the final record: the intact prefix must replay,
// the tail must be flagged torn, and nothing must error or panic. The
// replay's End is the last verified record's end, and a journal cut
// back there with TruncateTo takes an append that replays behind it.
func TestJournalTornTail(t *testing.T) {
	s := testStore(t)
	j, err := s.OpenJournal("sess")
	if err != nil {
		t.Fatal(err)
	}
	full := [][]byte{[]byte("alpha"), []byte("beta"), []byte("gamma")}
	var offsets []int64
	for _, rec := range full {
		if err := j.Append(1, rec); err != nil {
			t.Fatal(err)
		}
		off, err := j.f.Seek(0, 2)
		if err != nil {
			t.Fatal(err)
		}
		offsets = append(offsets, off)
	}
	j.Close()
	path := filepath.Join(s.Dir(), "sess"+journalSuffix)
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for cut := int64(0); cut <= int64(len(whole)); cut++ {
		if err := os.WriteFile(path, whole[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		wantIntact := 0
		for _, off := range offsets {
			if cut >= off {
				wantIntact++
			}
		}
		res, err := s.ReplayJournal("sess", func(uint32, []byte) error { return nil })
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if res.Records != wantIntact {
			t.Fatalf("cut %d: replayed %d records, want %d", cut, res.Records, wantIntact)
		}
		onBoundary := cut == 0 || cut == offsets[len(offsets)-1] ||
			(wantIntact > 0 && cut == offsets[wantIntact-1])
		if res.Torn == onBoundary {
			t.Fatalf("cut %d: torn=%v on boundary=%v", cut, res.Torn, onBoundary)
		}
		if res.Corrupt {
			t.Fatalf("cut %d: a torn tail reported as mid-log damage", cut)
		}
		wantEnd := int64(0)
		if wantIntact > 0 {
			wantEnd = offsets[wantIntact-1]
		}
		if res.End != wantEnd {
			t.Fatalf("cut %d: replay ends at %d, want %d", cut, res.End, wantEnd)
		}
		j, err := s.OpenJournal("sess")
		if err != nil {
			t.Fatal(err)
		}
		if err := j.TruncateTo(res.End); err != nil {
			t.Fatal(err)
		}
		if err := j.Append(1, []byte("after")); err != nil {
			t.Fatal(err)
		}
		j.Close()
		var last string
		res, err = s.ReplayJournal("sess", func(_ uint32, body []byte) error { last = string(body); return nil })
		if err != nil || res.Torn || res.Records != wantIntact+1 || last != "after" {
			t.Fatalf("cut %d: after TruncateTo and an append: %+v, last %q, %v", cut, res, last, err)
		}
	}
}

// TestJournalCorruptMiddleStopsReplay: a checksum-corrupt record in the
// middle ends the replay there — later records are unreachable (no
// trustworthy framing past the corruption) but earlier ones survive.
func TestJournalCorruptMiddleStopsReplay(t *testing.T) {
	s := testStore(t)
	j, err := s.OpenJournal("sess")
	if err != nil {
		t.Fatal(err)
	}
	var firstEnd int64
	for i, rec := range [][]byte{[]byte("keep"), []byte("corrupt-me"), []byte("unreachable")} {
		if err := j.Append(1, rec); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			if firstEnd, err = j.f.Seek(0, 2); err != nil {
				t.Fatal(err)
			}
		}
	}
	j.Close()
	path := filepath.Join(s.Dir(), "sess"+journalSuffix)
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	whole[firstEnd+envelopeHeaderSize] ^= 0xFF // flip a body byte of record 2
	if err := os.WriteFile(path, whole, 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := s.ReplayJournal("sess", func(uint32, []byte) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if res.Records != 1 || !res.Torn || !res.Corrupt {
		t.Fatalf("replay after mid-corruption: %+v", res)
	}
}

// TestDeltaLogIsASecondJournal: the delta log older versions wrote is
// a file of its own beside the journal, which nothing replays —
// HasDeltaLog reports it, RemoveDeltaLog deletes it (and is a no-op once
// it is gone) without touching the journal, and Remove deletes it with
// the session's other files.
func TestDeltaLogIsASecondJournal(t *testing.T) {
	s := testStore(t)
	j, err := s.OpenJournal("sess")
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if err := j.Append(2, []byte("step")); err != nil {
		t.Fatal(err)
	}
	has := func() bool {
		t.Helper()
		ok, err := s.HasDeltaLog("sess")
		if err != nil {
			t.Fatal(err)
		}
		return ok
	}
	if has() {
		t.Fatal("HasDeltaLog reports a log that was never written")
	}
	var log bytes.Buffer
	if err := EncodeEnvelope(&log, 3, []byte("delta-1")); err != nil {
		t.Fatal(err)
	}
	writeDelta := func() {
		t.Helper()
		if err := os.WriteFile(filepath.Join(s.Dir(), "sess.delta"), log.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	writeDelta()
	if !has() {
		t.Fatal("HasDeltaLog misses a delta log")
	}
	if _, err := s.HasDeltaLog("../escape"); err == nil {
		t.Fatal("HasDeltaLog accepted a name with a path separator")
	}
	for i := 0; i < 2; i++ {
		if err := s.RemoveDeltaLog("sess"); err != nil {
			t.Fatalf("RemoveDeltaLog #%d: %v", i+1, err)
		}
	}
	if has() {
		t.Fatal("RemoveDeltaLog left the delta log")
	}
	if res, err := s.ReplayJournal("sess", func(uint32, []byte) error { return nil }); err != nil || res.Records != 1 {
		t.Fatalf("journal replay after removing the delta log %+v, %v", res, err)
	}
	writeDelta()
	if err := s.SaveSnapshot("sess", 2, []byte("base")); err != nil {
		t.Fatal(err)
	}
	if err := s.Remove("sess"); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(s.Dir())
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		t.Errorf("Remove left %s", e.Name())
	}
}

// TestSyncDirReportsErrors: a directory fsync that cannot happen is an
// error, not a silent success — compaction relies on the rename it
// makes durable.
func TestSyncDirReportsErrors(t *testing.T) {
	dir := t.TempDir()
	if err := syncDir(dir); err != nil {
		t.Fatalf("syncDir on a real directory: %v", err)
	}
	if err := syncDir(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("syncDir on a missing directory succeeded")
	}
}
