//go:build !linux

package persist

import "os"

// syncData flushes f to stable storage. Where fdatasync(2) is not
// available this is a full fsync.
func syncData(f *os.File) error { return f.Sync() }
