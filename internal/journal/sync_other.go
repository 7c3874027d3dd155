//go:build !linux

package journal

import "os"

// fallocate is unsupported here: the journal appends past the end of
// the file instead of into a preallocated extent.
func fallocate(f *os.File, off, n int64) (bool, error) { return false, nil }

// fdatasync falls back to a full fsync.
func fdatasync(f *os.File) error { return f.Sync() }
