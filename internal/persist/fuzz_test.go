package persist

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// FuzzDecodeEnvelope is the satellite coverage task: arbitrary input —
// truncated, bit-flipped, wrong-version, wrong-checksum — must never
// panic, never allocate unbounded memory, and never return a body whose
// checksum was not verified.
func FuzzDecodeEnvelope(f *testing.F) {
	var good bytes.Buffer
	if err := EncodeEnvelope(&good, 1, []byte("seed body")); err != nil {
		f.Fatal(err)
	}
	f.Add(good.Bytes())
	f.Add([]byte{})
	f.Add(envelopeMagic[:])
	truncated := good.Bytes()[:len(good.Bytes())-3]
	f.Add(truncated)
	flipped := append([]byte(nil), good.Bytes()...)
	flipped[10] ^= 0x40 // version field
	f.Add(flipped)
	f.Fuzz(func(t *testing.T, data []byte) {
		version, body, err := DecodeEnvelope(bytes.NewReader(data))
		if err != nil {
			if body != nil {
				t.Fatalf("error %v returned alongside a body", err)
			}
			return
		}
		// A successful decode must mean the input literally was a valid
		// envelope: re-encoding must reproduce the consumed prefix.
		var re bytes.Buffer
		if err := EncodeEnvelope(&re, version, body); err != nil {
			t.Fatalf("re-encode of decoded envelope failed: %v", err)
		}
		if !bytes.Equal(re.Bytes(), data[:re.Len()]) {
			t.Fatal("decode accepted bytes that do not round-trip")
		}
	})
}

// FuzzReplayJournal feeds arbitrary bytes as a journal file: replay
// must never panic, never error (corruption is a torn tail by
// definition), and only ever deliver checksum-verified records.
func FuzzReplayJournal(f *testing.F) {
	var good bytes.Buffer
	_ = EncodeEnvelope(&good, 1, []byte("r1"))
	_ = EncodeEnvelope(&good, 1, []byte("r2"))
	f.Add(good.Bytes())
	f.Add([]byte{})
	f.Add(good.Bytes()[:good.Len()-5])
	garbage := append(append([]byte(nil), good.Bytes()...), 0xDE, 0xAD)
	f.Add(garbage)
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "fuzz.journal"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := NewStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.ReplayJournal("fuzz", func(version uint32, body []byte) error { return nil })
		if err != nil {
			t.Fatalf("replay errored on arbitrary bytes: %v", err)
		}
		if res.Records < 0 {
			t.Fatal("negative record count")
		}
	})
}

// FuzzLoadSnapshot: arbitrary snapshot files never load unless intact.
func FuzzLoadSnapshot(f *testing.F) {
	var good bytes.Buffer
	_ = EncodeEnvelope(&good, 1, []byte("snapshot body"))
	f.Add(good.Bytes())
	f.Add([]byte("not a snapshot"))
	f.Add(withBodyLength(good.Bytes(), 1<<30)) // a length the file cannot back
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "s.snap"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := NewStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		_, body, err := s.LoadSnapshot("s")
		if err == nil {
			// Loaded means checksummed: the file must be a whole valid envelope.
			var re bytes.Buffer
			_ = EncodeEnvelope(&re, 0, body)
			if re.Len() > len(data) {
				t.Fatal("loaded a snapshot shorter than its own envelope")
			}
			return
		}
		if errors.Is(err, ErrNoSnapshot) {
			t.Fatal("existing file reported as missing")
		}
	})
}
