package persist

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"
)

// Snapshot and journal file suffixes inside a store directory.
const (
	snapSuffix    = ".snap"
	snapTmpSuffix = ".snap.tmp"
	journalSuffix = ".journal"
	deltaSuffix   = ".delta"
	tombSuffix    = ".tomb"
	tombTmpSuffix = ".tomb.tmp"
)

// ErrNoSnapshot is returned by LoadSnapshot when the named session has
// no snapshot on disk.
var ErrNoSnapshot = errors.New("persist: no snapshot")

// Store is a directory of per-session snapshots and journals. Snapshot
// writes are atomic (write temp, fsync, rename), so the file named
// <session>.snap is always the last good snapshot: a crash mid-write
// leaves at worst an ignorable .snap.tmp next to it. A <session>.delta,
// the log of incremental snapshots older versions kept, is never read
// or written: HasDeltaLog reports one so a restore can refuse the
// session, and RemoveDeltaLog and Remove delete it.
//
// A Store's methods are safe for concurrent use on distinct session
// names; per-name serialization is the caller's job (the service holds
// its per-session step mutex across persist calls).
type Store struct {
	dir string
}

// NewStore opens (creating if needed) a state directory.
func NewStore(dir string) (*Store, error) {
	if dir == "" {
		return nil, errors.New("persist: empty state directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("persist: creating state dir: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the state directory path.
func (s *Store) Dir() string { return s.dir }

// checkSessionName rejects names that would escape the store directory
// or collide with its file naming. The service validates names at
// session creation; this re-validates at the trust boundary so the
// store stays safe under any caller.
func checkSessionName(name string) error {
	if name == "" {
		return errors.New("persist: empty session name")
	}
	if len(name) > 200 {
		return errors.New("persist: session name longer than 200 bytes")
	}
	if strings.ContainsAny(name, "/\\") || name == "." || name == ".." {
		return fmt.Errorf("persist: session name %q contains a path separator", name)
	}
	return nil
}

func (s *Store) snapPath(name string) string    { return filepath.Join(s.dir, name+snapSuffix) }
func (s *Store) journalPath(name string) string { return filepath.Join(s.dir, name+journalSuffix) }
func (s *Store) deltaPath(name string) string   { return filepath.Join(s.dir, name+deltaSuffix) }

// SaveSnapshot atomically replaces the session's snapshot: the envelope
// is written to a temp file, fsynced, and renamed over the previous
// snapshot, then the directory entry is fsynced. At no point does a
// crash leave the store without the last good snapshot. An error from
// the directory fsync is returned even though the new snapshot is
// already visible: the caller must not rely on the rename surviving a
// power loss.
func (s *Store) SaveSnapshot(name string, version uint32, body []byte) error {
	if err := checkSessionName(name); err != nil {
		return err
	}
	return s.replaceFile(filepath.Join(s.dir, name+snapTmpSuffix), s.snapPath(name), "snapshot", func(w io.Writer) error {
		return EncodeEnvelope(w, version, body)
	})
}

// replaceFile atomically replaces final with what write produces: the
// bytes go to tmp, which is fsynced, closed and renamed over final, and
// then the directory entry is fsynced. Every failure before the rename
// removes tmp. what names the file in errors.
func (s *Store) replaceFile(tmp, final, what string, write func(io.Writer) error) error {
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("persist: creating %s temp: %w", what, err)
	}
	if err := write(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("persist: writing %s: %w", what, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("persist: syncing %s: %w", what, err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("persist: closing %s: %w", what, err)
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("persist: publishing %s: %w", what, err)
	}
	return syncDir(s.dir)
}

// syncDir fsyncs a directory so a just-renamed entry survives power
// loss. EINVAL is the one tolerated failure: it is how a filesystem
// that cannot fsync a directory at all says so, and on such a
// filesystem there is no stronger barrier to ask for.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("persist: opening state dir for fsync: %w", err)
	}
	err = d.Sync()
	d.Close()
	if err != nil && !errors.Is(err, syscall.EINVAL) {
		return fmt.Errorf("persist: syncing state dir: %w", err)
	}
	return nil
}

// LoadSnapshot reads and verifies the session's snapshot, returning its
// schema version and body. ErrNoSnapshot means none exists; decode
// errors (ErrBadMagic, ErrTruncated, ErrChecksum, ErrTooLarge) mean the
// file exists but cannot be trusted. The file's size is known, so the
// body is read into one buffer of its declared length, and a length the
// file cannot hold is ErrTruncated before any of it is allocated.
func (s *Store) LoadSnapshot(name string) (version uint32, body []byte, err error) {
	if err := checkSessionName(name); err != nil {
		return 0, nil, err
	}
	f, err := os.Open(s.snapPath(name))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return 0, nil, fmt.Errorf("%w: %q", ErrNoSnapshot, name)
		}
		return 0, nil, fmt.Errorf("persist: opening snapshot: %w", err)
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return 0, nil, fmt.Errorf("persist: stat snapshot: %w", err)
	}
	return decodeEnvelope(f, info.Size())
}

// SnapshotStat reports when the session's snapshot was last written
// and its size, without reading it — boot-time restore uses the mtime
// as the snapshot's age so operators see honest staleness, not the
// restart time.
func (s *Store) SnapshotStat(name string) (modTime time.Time, size int64, err error) {
	if err := checkSessionName(name); err != nil {
		return time.Time{}, 0, err
	}
	info, err := os.Stat(s.snapPath(name))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return time.Time{}, 0, fmt.Errorf("%w: %q", ErrNoSnapshot, name)
		}
		return time.Time{}, 0, fmt.Errorf("persist: stat snapshot: %w", err)
	}
	return info.ModTime(), info.Size(), nil
}

// List returns the names of all sessions with a snapshot on disk,
// sorted. Stray temp files and journals are not listed — a session's
// journal without a snapshot is unrecoverable by construction (the
// initial snapshot is written at session creation, before the first
// journal record).
func (s *Store) List() ([]string, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("persist: listing state dir: %w", err)
	}
	var names []string
	for _, e := range entries {
		n := e.Name()
		if e.Type().IsRegular() && strings.HasSuffix(n, snapSuffix) && !strings.HasSuffix(n, snapTmpSuffix) {
			names = append(names, strings.TrimSuffix(n, snapSuffix))
		}
	}
	sort.Strings(names)
	return names, nil
}

// HasDeltaLog reports whether the session has a delta log beside its
// snapshot: records an older version layered on the base, which nothing
// here reads, so the snapshot alone may hold a shorter history.
func (s *Store) HasDeltaLog(name string) (bool, error) {
	if err := checkSessionName(name); err != nil {
		return false, err
	}
	_, err := os.Stat(s.deltaPath(name))
	if errors.Is(err, fs.ErrNotExist) {
		return false, nil
	}
	if err != nil {
		return false, fmt.Errorf("persist: stat delta log: %w", err)
	}
	return true, nil
}

// RemoveDeltaLog deletes the session's delta log, if it has one (a new
// session's first snapshot supersedes a stale one of its name).
func (s *Store) RemoveDeltaLog(name string) error {
	if err := checkSessionName(name); err != nil {
		return err
	}
	if err := os.Remove(s.deltaPath(name)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("persist: removing delta log: %w", err)
	}
	return nil
}

// Remove deletes the session's snapshot, journal and delta log (missing
// files are fine: Remove is how Delete cleans up half-created sessions
// too).
func (s *Store) Remove(name string) error {
	if err := checkSessionName(name); err != nil {
		return err
	}
	var firstErr error
	for _, p := range []string{s.snapPath(name), s.journalPath(name), s.deltaPath(name), filepath.Join(s.dir, name+snapTmpSuffix)} {
		if err := os.Remove(p); err != nil && !errors.Is(err, fs.ErrNotExist) && firstErr == nil {
			firstErr = fmt.Errorf("persist: removing %s: %w", p, err)
		}
	}
	return firstErr
}

func (s *Store) tombPath(name string) string { return filepath.Join(s.dir, name+tombSuffix) }

// SaveTombstone durably records that the named session migrated to the
// shard at location (a base URL). The write is atomic like snapshots:
// temp, fsync, rename — a restarted shard must keep redirecting, so a
// tombstone is part of the session's durable state.
func (s *Store) SaveTombstone(name, location string) error {
	if err := checkSessionName(name); err != nil {
		return err
	}
	return s.replaceFile(filepath.Join(s.dir, name+tombTmpSuffix), s.tombPath(name), "tombstone", func(w io.Writer) error {
		_, err := io.WriteString(w, location+"\n")
		return err
	})
}

// LoadTombstones returns every persisted session -> new-owner redirect
// it can read, and for each tombstone it cannot, the session's name and
// why. A caller must treat an unreadable tombstone's session as handed
// off, not as local: restoring it would give it two owners. err reports
// only a state dir that cannot be listed.
func (s *Store) LoadTombstones() (tombs map[string]string, unreadable map[string]error, err error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, nil, fmt.Errorf("persist: listing state dir: %w", err)
	}
	tombs = make(map[string]string)
	unreadable = make(map[string]error)
	for _, e := range entries {
		n := e.Name()
		if !e.Type().IsRegular() || !strings.HasSuffix(n, tombSuffix) || strings.HasSuffix(n, tombTmpSuffix) {
			continue
		}
		name := strings.TrimSuffix(n, tombSuffix)
		data, err := os.ReadFile(filepath.Join(s.dir, n))
		if err != nil {
			unreadable[name] = fmt.Errorf("persist: reading tombstone %s: %w", n, err)
			continue
		}
		tombs[name] = strings.TrimSpace(string(data))
	}
	return tombs, unreadable, nil
}

// RemoveTombstone deletes a session's redirect (a session re-created or
// migrated back under the name supersedes it). Missing files are fine.
func (s *Store) RemoveTombstone(name string) error {
	if err := checkSessionName(name); err != nil {
		return err
	}
	if err := os.Remove(s.tombPath(name)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("persist: removing tombstone: %w", err)
	}
	return nil
}
