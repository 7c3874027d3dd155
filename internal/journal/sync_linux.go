//go:build linux

package journal

import (
	"errors"
	"os"
	"syscall"
)

// fallocate reserves [off, off+n) of f, extending its size, and
// reports whether the file system supports it. A file system without
// fallocate (EOPNOTSUPP, or a kernel without the call) is not an
// error: the journal then appends past the end of the file instead.
func fallocate(f *os.File, off, n int64) (bool, error) {
	for {
		err := syscall.Fallocate(int(f.Fd()), 0, off, n)
		switch {
		case err == nil:
			return true, nil
		case errors.Is(err, syscall.EINTR):
			continue
		case errors.Is(err, syscall.EOPNOTSUPP), errors.Is(err, syscall.ENOSYS):
			return false, nil
		}
		return false, &os.PathError{Op: "fallocate", Path: f.Name(), Err: err}
	}
}

// fdatasync flushes f's data and whatever metadata reading it back
// needs, its size included, but not its timestamps.
func fdatasync(f *os.File) error {
	for {
		err := syscall.Fdatasync(int(f.Fd()))
		if errors.Is(err, syscall.EINTR) {
			continue
		}
		if err != nil {
			return &os.PathError{Op: "fdatasync", Path: f.Name(), Err: err}
		}
		return nil
	}
}
