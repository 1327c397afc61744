package persist

import (
	"errors"
	"os"
	"syscall"
)

// syncData flushes f's data and the metadata needed to read it back
// (its size) to stable storage, but not its timestamps: fdatasync(2).
// That is all an append-only log needs to survive a power loss, and on
// every group commit it is cheaper than the fsync(2) that also commits
// the inode's times.
func syncData(f *os.File) error {
	rc, err := f.SyscallConn()
	if err != nil {
		return err
	}
	var serr error
	if err := rc.Control(func(fd uintptr) {
		for {
			if serr = syscall.Fdatasync(int(fd)); !errors.Is(serr, syscall.EINTR) {
				return
			}
		}
	}); err != nil {
		return err
	}
	if serr != nil {
		return &os.PathError{Op: "fdatasync", Path: f.Name(), Err: serr}
	}
	return nil
}
