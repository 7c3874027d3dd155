// Package journal is the crash-safe file codec behind audit
// checkpoint/resume: one file holds the committed rounds of a single
// audit as length-prefixed, checksummed frames, each durable before
// its append returns — the RoundJournal the core journaling middleware
// writes through, and the replay source a resumed job loads.
//
// # Layout
//
// A journal is an 8-byte magic ("CVGJNL02") followed by frames of
//
//	uint32 LE payload length | uint32 LE CRC-32 (IEEE) of payload | payload
//
// where the payload is one core.RoundRecord in the compact binary
// encoding of codec.go: varints, a round-kind and an err-kind byte,
// the governor's spend as float64 bits, set answers as bits. Records
// are self-indexing (RoundRecord.Round), so Load verifies the sequence
// is gapless from 0.
//
// # Preallocation and sync
//
// The file grows in preallocated 1 MiB extents of zeros (fallocate),
// and every growth is followed by one full fsync, which makes the new
// size durable. An append is then one write at the end of the last
// frame, inside the extent, plus fdatasync. fdatasync is enough: it
// flushes the frame's data and every piece of metadata needed to read
// it back — including the file size whenever a write extends it — and
// skips only what recovery never reads, such as timestamps. Where the
// file system cannot preallocate, or off Linux, the journal skips
// preallocation and each append extends the file, which fdatasync (a
// full fsync off Linux) then covers: a cost in speed, not in
// durability. Close truncates the file back to its last frame, so a
// cleanly closed journal is still the magic plus its frames; a journal
// that was never closed ends in zeros.
//
// # Recovery
//
// Recovery draws a hard line between a torn tail and corruption:
//
//   - A zero length field followed only by zero bytes is the end of the
//     log: the unused rest of a preallocated extent.
//   - A crash mid-append leaves a final frame whose header or payload is
//     incomplete, or which fails its checksum with nothing but zeros
//     after it. That is a torn tail: Load drops exactly that frame and
//     returns every complete round before it, and Open truncates the
//     file back to the last complete round; the next append
//     preallocates again, and its fsync makes the truncation durable.
//   - A crash inside Create can leave a torn header — a zero-length file
//     or a strict prefix of the magic — which both treat as an empty
//     journal (resume from round 0); Open rewrites the header.
//   - Anything else is corruption, and Load fails loudly with
//     ErrCorrupt: a checksum mismatch or a zeroed frame header with any
//     nonzero byte behind it, an undecodable payload, out-of-sequence
//     round numbers, a bad magic. Silently replaying a damaged journal
//     would fabricate crowd answers.
//
// # Version 1
//
// The first codec version, "CVGJNL01", framed JSON-encoded records the
// same way, without preallocation. Load still reads it, with the same
// recovery rules. Open rewrites a CVGJNL01 journal as CVGJNL02 before
// appending — to a temporary file that is synced, renamed over the
// original, and made durable with a directory fsync — so only the
// version-2 writer ever appends.
package journal

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"

	"imagecvg/internal/core"
)

// magic identifies a journal file of the current codec version;
// magicV1 the JSON codec it replaced.
const (
	magic   = "CVGJNL02"
	magicV1 = "CVGJNL01"
)

// frameHeaderSize is the per-frame overhead: payload length + CRC.
const frameHeaderSize = 8

// maxFrameSize bounds one record's encoding; a length field above it
// is treated as corruption rather than an attempted allocation.
const maxFrameSize = 64 << 20

// extent is the preallocation unit.
const extent = 1 << 20

// ErrCorrupt marks a journal Load refuses to replay: damage beyond a
// torn tail (mid-file checksum mismatch, undecodable record,
// out-of-sequence rounds, bad magic).
var ErrCorrupt = errors.New("journal: corrupt journal file")

// Journal is an open journal file accepting appends. It implements
// core.RoundJournal. Safe for concurrent use, though the core
// middleware already serializes rounds.
type Journal struct {
	mu       sync.Mutex
	f        *os.File
	path     string
	next     int    // expected Round of the next append
	end      int64  // offset just past the last frame
	size     int64  // the file's size: end plus the preallocated zeros
	prealloc bool   // false once the file system refused fallocate
	buf      []byte // the frame encoding buffer, reused by every append
}

// Create starts a fresh journal at path, truncating any existing file,
// and makes the header and the file's directory entry durable before
// returning.
func Create(path string) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: create %s: %w", path, err)
	}
	j := &Journal{f: f, path: path, prealloc: true}
	if err := j.start(0); err != nil {
		f.Close()
		return nil, err
	}
	if err := j.grow(0); err != nil {
		f.Close()
		return nil, fmt.Errorf("journal: preallocate %s: %w", path, err)
	}
	if err := SyncDir(filepath.Dir(path)); err != nil {
		f.Close()
		return nil, fmt.Errorf("journal: sync directory of %s: %w", path, err)
	}
	return j, nil
}

// Open loads an existing journal for resumption: it returns the
// complete rounds on disk (the replay records for the resumed run),
// truncates a torn tail left by a crash, and positions the journal to
// append the next round. A CVGJNL01 journal is first rewritten as
// CVGJNL02. Corruption beyond a torn tail fails with ErrCorrupt.
//
// Open neither preallocates nor syncs: a resume that appends nothing
// leaves the file at its last frame. The first Append preallocates,
// and the fsync after it also makes the truncation durable. Until then
// a crash may bring the cut tail back, which recovery cuts again.
func Open(path string) (*Journal, []core.RoundRecord, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("journal: open %s: %w", path, err)
	}
	data, err := readFile(f)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	recs, validEnd, err := parse(data)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	if validEnd > 0 && string(data[:len(magicV1)]) == magicV1 {
		fi, err := f.Stat()
		f.Close()
		if err != nil {
			return nil, nil, fmt.Errorf("journal: open %s: %w", path, err)
		}
		j, err := upgrade(path, fi.Mode().Perm(), recs)
		if err != nil {
			return nil, nil, err
		}
		return j, recs, nil
	}
	j := &Journal{f: f, path: path, next: len(recs), end: validEnd, prealloc: true}
	if err := j.start(int64(len(data))); err != nil {
		f.Close()
		return nil, nil, err
	}
	return j, recs, nil
}

// upgrade rewrites a CVGJNL01 journal's complete records as a CVGJNL02
// journal at path, through a synced temporary file renamed over it
// with the original's permissions, and returns the new journal open
// for appends.
func upgrade(path string, perm os.FileMode, recs []core.RoundRecord) (*Journal, error) {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".v2-*")
	if err != nil {
		return nil, fmt.Errorf("journal: upgrade %s: %w", path, err)
	}
	j := &Journal{f: f, path: path, next: len(recs), prealloc: true}
	buf := []byte(magic)
	for _, rec := range recs {
		if buf, err = appendFrame(buf, rec); err != nil {
			break
		}
	}
	if err == nil {
		err = f.Chmod(perm)
	}
	if err == nil {
		_, err = f.WriteAt(buf, 0)
	}
	if err == nil {
		j.end = int64(len(buf))
		err = j.start(j.end)
	}
	if err == nil {
		err = j.grow(0)
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err == nil {
		err = SyncDir(dir)
	}
	if err != nil {
		f.Close()
		os.Remove(f.Name())
		return nil, fmt.Errorf("journal: upgrade %s: %w", path, err)
	}
	return j, nil
}

// start readies the file for appends once its first j.end bytes hold
// the journal to keep, size being the file's current size: it cuts
// everything past j.end (a torn tail, or the unused zeros of an
// extent) and writes the magic into a file without a whole header.
// It neither preallocates nor syncs: Create and the upgrade grow the
// file right after, Open leaves that to the first Append.
func (j *Journal) start(size int64) error {
	if size > j.end {
		if err := j.f.Truncate(j.end); err != nil {
			return fmt.Errorf("journal: truncate %s to its last round: %w", j.path, err)
		}
	}
	if j.end < int64(len(magic)) {
		// A torn header (crash inside Create before the magic was
		// durable) or a new file.
		if _, err := j.f.WriteAt([]byte(magic), 0); err != nil {
			return fmt.Errorf("journal: write header of %s: %w", j.path, err)
		}
		j.end = int64(len(magic))
	}
	j.size = j.end
	return nil
}

// grow preallocates whole extents past the next n bytes after j.end,
// then fsyncs the file, making the new size durable. Without
// preallocation it only syncs.
func (j *Journal) grow(n int64) error {
	if j.prealloc {
		size := (j.end+n)/extent*extent + extent
		ok, err := fallocate(j.f, j.size, size-j.size)
		if err != nil {
			return err
		}
		if ok {
			j.size = size
		} else {
			j.prealloc = false
		}
	}
	return j.f.Sync()
}

// Load reads the complete rounds of the journal at path without
// opening it for appends (torn tails are skipped, not truncated, and a
// CVGJNL01 journal is read as it is).
func Load(path string) ([]core.RoundRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("journal: open %s: %w", path, err)
	}
	defer f.Close()
	data, err := readFile(f)
	if err != nil {
		return nil, err
	}
	recs, _, err := parse(data)
	return recs, err
}

// readFile reads the whole of f.
func readFile(f *os.File) ([]byte, error) {
	fi, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("journal: read: %w", err)
	}
	data := make([]byte, fi.Size())
	if _, err := io.ReadFull(f, data); err != nil {
		return nil, fmt.Errorf("journal: read: %w", err)
	}
	return data, nil
}

// parse decodes every complete frame of a journal's bytes, returning
// the records and the offset just past the last complete frame (0 for
// a torn header).
func parse(data []byte) ([]core.RoundRecord, int64, error) {
	if len(data) < len(magic) {
		// A zero-length file, or any strict prefix of the magic, is the
		// torn header a crash inside Create leaves behind — an empty
		// journal (resume from round 0), not corruption. Content that
		// diverges from the magic is a different file format, and
		// stays loud.
		if strings.HasPrefix(magic, string(data)) || strings.HasPrefix(magicV1, string(data)) {
			return nil, 0, nil
		}
		return nil, 0, fmt.Errorf("%w: missing or wrong magic", ErrCorrupt)
	}
	var decode func([]byte) (core.RoundRecord, error)
	switch string(data[:len(magic)]) {
	case magic:
		decode = (&decoder{}).decode
	case magicV1:
		decode = decodeJSON
	default:
		return nil, 0, fmt.Errorf("%w: missing or wrong magic", ErrCorrupt)
	}
	n, end, err := scanFrames(data)
	if err != nil {
		return nil, 0, err
	}
	recs := make([]core.RoundRecord, n)
	off := int64(len(magic))
	for i := range recs {
		length := int64(binary.LittleEndian.Uint32(data[off:]))
		rec, err := decode(data[off+frameHeaderSize : off+frameHeaderSize+length])
		if err != nil {
			return nil, 0, fmt.Errorf("%w: undecodable record at offset %d: %v", ErrCorrupt, off, err)
		}
		if rec.Round != i {
			return nil, 0, fmt.Errorf("%w: record at offset %d has round %d, want %d",
				ErrCorrupt, off, rec.Round, i)
		}
		recs[i] = rec
		off += frameHeaderSize + length
	}
	return recs, end, nil
}

// scanFrames walks the frames after the magic, checking each one's
// checksum, and returns how many are complete and the offset just past
// the last of them. The walk ends at the end of the log (a zeroed
// header with only zeros behind it) or at a torn tail; any other
// damage is ErrCorrupt.
func scanFrames(data []byte) (int, int64, error) {
	n, off := 0, len(magic)
	for off < len(data) {
		rest := data[off:]
		if len(rest) < frameHeaderSize {
			break // end of log, or torn tail: header incomplete
		}
		length := binary.LittleEndian.Uint32(rest[0:4])
		sum := binary.LittleEndian.Uint32(rest[4:8])
		if length > maxFrameSize {
			return 0, 0, fmt.Errorf("%w: frame at offset %d declares %d bytes", ErrCorrupt, off, length)
		}
		if uint32(len(rest)-frameHeaderSize) < length {
			break // torn tail: payload incomplete
		}
		frame := rest[:frameHeaderSize+int(length)]
		if length == 0 || crc32.ChecksumIEEE(frame[frameHeaderSize:]) != sum {
			// No encoder writes an empty payload, so a zero length is
			// the zero fill past the last frame, and a checksum
			// mismatch a frame half-written — as long as nothing but
			// zeros follows.
			if allZero(rest[len(frame):]) {
				break
			}
			return 0, 0, fmt.Errorf("%w: damaged frame at offset %d with nonzero bytes following", ErrCorrupt, off)
		}
		n++
		off += len(frame)
	}
	return n, int64(off), nil
}

// allZero reports whether b holds only zero bytes.
func allZero(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}

// decodeJSON decodes a CVGJNL01 payload.
func decodeJSON(payload []byte) (core.RoundRecord, error) {
	var rec core.RoundRecord
	err := json.Unmarshal(payload, &rec)
	return rec, err
}

// appendFrame appends rec's frame to buf.
func appendFrame(buf []byte, rec core.RoundRecord) ([]byte, error) {
	start := len(buf)
	buf = binary.LittleEndian.AppendUint64(buf, 0) // header, filled below
	buf, err := encodeRecord(buf, rec)
	if err != nil {
		return buf[:start], err
	}
	payload := buf[start+frameHeaderSize:]
	if len(payload) > maxFrameSize {
		return buf[:start], fmt.Errorf("journal: round %d encodes to %d bytes", rec.Round, len(payload))
	}
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.ChecksumIEEE(payload))
	return buf, nil
}

// Append implements core.RoundJournal: one frame per committed round,
// durable before Append returns, so a crash never loses an
// acknowledged round. Records must arrive in round order.
func (j *Journal) Append(rec core.RoundRecord) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return errors.New("journal: append to closed journal")
	}
	if rec.Round != j.next {
		return fmt.Errorf("journal: append round %d, want %d", rec.Round, j.next)
	}
	frame, err := appendFrame(j.buf[:0], rec)
	j.buf = frame
	if err != nil {
		return fmt.Errorf("journal: encode round %d: %w", rec.Round, err)
	}
	n := int64(len(frame))
	if j.prealloc && j.end+n > j.size {
		if err := j.grow(n); err != nil {
			return fmt.Errorf("journal: grow for round %d: %w", rec.Round, err)
		}
	}
	if _, err := j.f.WriteAt(frame, j.end); err != nil {
		return fmt.Errorf("journal: write round %d: %w", rec.Round, err)
	}
	if err := fdatasync(j.f); err != nil {
		return fmt.Errorf("journal: sync round %d: %w", rec.Round, err)
	}
	j.end += n
	j.size = max(j.size, j.end)
	j.next++
	return nil
}

// Rounds returns how many rounds the journal holds.
func (j *Journal) Rounds() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.next
}

// Path returns the journal's file path.
func (j *Journal) Path() string { return j.path }

// Close truncates the preallocated zeros past the last frame and
// closes the file; further appends fail. The truncation is not synced:
// a crash that undoes it leaves the zeros, which read as the end of
// the log.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	var err error
	if j.size > j.end {
		if err = j.f.Truncate(j.end); err != nil {
			err = fmt.Errorf("journal: truncate %s to its last round: %w", j.path, err)
		}
	}
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	j.f = nil
	return err
}

// SyncDir fsyncs a directory, making the entries created in it or
// renamed into it durable. Windows has no directory fsync, so there
// it does nothing.
func SyncDir(dir string) error {
	if runtime.GOOS == "windows" {
		return nil
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
