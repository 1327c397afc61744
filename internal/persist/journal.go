package persist

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
)

// The journal is the incremental half of a session's durable state:
// snapshots are full bases, written only when a compaction is due,
// journal records are appended every batch, and recovery folds the
// journal on top of the base — the one log a restore reads. Records are
// full envelopes back to back, so each carries its own checksum; a
// SIGKILL mid-append leaves a torn final record, which Replay detects
// and ignores — everything before it is intact — and TruncateTo cuts
// off before the next append.
//
// Append is a plain write; durability against power loss comes from
// Sync, which the caller's journal-sync mode decides when to call:
// "group" (tplserved's default) acks an append only after the fsync of
// its commit group covers it (GroupCommitter, which syncs a group's
// journals concurrently), "step" fsyncs after every append,
// and "none" never fsyncs. Process death never loses page-cache data,
// so the kill-and-recover contract holds in every mode; only in "none"
// can a whole-machine power loss take the un-synced tail.

// Journal is an append-only record log for one session.
type Journal struct {
	f    *os.File
	path string
}

// OpenJournal opens (creating if needed) the session's journal for
// appending.
func (s *Store) OpenJournal(name string) (*Journal, error) {
	if err := checkSessionName(name); err != nil {
		return nil, err
	}
	p := s.journalPath(name)
	f, err := os.OpenFile(p, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("persist: opening %s: %w", filepath.Base(p), err)
	}
	return &Journal{f: f, path: p}, nil
}

// Append writes one record (an envelope framing body) to the journal.
//
//tplvet:hotpath
func (j *Journal) Append(version uint32, body []byte) error {
	return EncodeEnvelope(j.f, version, body)
}

// Sync flushes appended records, and the file size that makes them
// readable, to stable storage (fdatasync where the platform has it).
func (j *Journal) Sync() error { return syncData(j.f) }

// Close closes the journal file.
func (j *Journal) Close() error { return j.f.Close() }

// Reset truncates the journal to empty — called right after a snapshot
// lands, since everything the journal held is now covered by it. The
// order (snapshot first, truncate second) means a crash between the two
// leaves a journal whose records are all already in the snapshot;
// replay must therefore tolerate records at or before the snapshot's
// position, which the service does by skipping records by step index.
func (j *Journal) Reset() error { return j.TruncateTo(0) }

// TruncateTo cuts the journal back to its first n bytes — a replay's
// End, to drop a torn tail before appending behind the last verified
// record (replay stops at the first unverifiable record, so anything
// appended behind a torn one would be unreachable).
func (j *Journal) TruncateTo(n int64) error {
	if err := j.f.Truncate(n); err != nil {
		return fmt.Errorf("persist: truncating %s: %w", filepath.Base(j.path), err)
	}
	// O_APPEND writes position themselves at the (new) end; no seek is
	// needed, and the file offset staying large is harmless.
	return nil
}

// ReplayResult reports what a journal replay found.
type ReplayResult struct {
	// Records is the number of intact records handed to the callback.
	Records int
	// Torn reports whether the journal ended in a torn or corrupt
	// record (ignored — the expected shape after a crash mid-append).
	Torn bool
	// Corrupt refines Torn: the unverifiable record's header is intact
	// and declares an extent that ends before the file does, so more
	// data follows it. A crash mid-append tears only the final record,
	// so this is damage to the middle of the log, not a torn tail.
	Corrupt bool
	// End is the offset just past the last intact record: the file's
	// size for a clean log, where a torn tail starts otherwise.
	End int64
}

// ReplayJournal streams every intact record of the session's journal to
// fn, in order. It stops cleanly at EOF or at the first torn/corrupt
// record — everything before a bad record is trusted (each record
// carries its own checksum), everything from it on is not. A missing
// journal file replays zero records: a session that never stepped has
// nothing to recover. An error from fn aborts the replay.
func (s *Store) ReplayJournal(name string, fn func(version uint32, body []byte) error) (ReplayResult, error) {
	var res ReplayResult
	if err := checkSessionName(name); err != nil {
		return res, err
	}
	p := s.journalPath(name)
	f, err := os.Open(p)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return res, nil
		}
		return res, fmt.Errorf("persist: opening %s: %w", filepath.Base(p), err)
	}
	defer f.Close()
	br := bufio.NewReader(f)
	for {
		if _, err := br.Peek(1); errors.Is(err, io.EOF) {
			return res, nil // file ends exactly on a record boundary
		}
		version, body, err := DecodeEnvelope(br)
		if err != nil {
			if isTornTail(err) {
				res.Torn = true
				res.Corrupt = followedByData(f, res.End)
				return res, nil
			}
			return res, err
		}
		if err := fn(version, body); err != nil {
			return res, err
		}
		res.Records++
		res.End += envelopeHeaderSize + int64(len(body))
	}
}

// followedByData reports whether the record starting at off has an
// intact magic and a declared extent ending before the end of f — the
// signature of a damaged middle record rather than a torn final one.
func followedByData(f *os.File, off int64) bool {
	info, err := f.Stat()
	if err != nil {
		return false
	}
	hdr := make([]byte, envelopeHeaderSize)
	if _, err := f.ReadAt(hdr, off); err != nil || !bytes.Equal(hdr[:8], envelopeMagic[:]) {
		return false
	}
	n := binary.LittleEndian.Uint64(hdr[12:])
	return n <= maxBodyBytes && off+envelopeHeaderSize+int64(n) < info.Size()
}

// isTornTail classifies a decode failure as an ignorable tail. Torn
// writes surface as truncation; a crash can also tear *within* the
// checksum or magic bytes of the final record, so checksum and magic
// failures terminate the replay the same way (there is no record
// boundary to resynchronize on — and trusting anything after a corrupt
// record would mean trusting unchecksummed offsets).
func isTornTail(err error) bool {
	return errors.Is(err, ErrTruncated) || errors.Is(err, ErrChecksum) ||
		errors.Is(err, ErrBadMagic) || errors.Is(err, ErrTooLarge)
}
