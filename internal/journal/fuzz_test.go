package journal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"imagecvg/internal/core"
	"imagecvg/internal/dataset"
	"imagecvg/internal/pattern"
)

// fuzzBase is the valid journal FuzzJournalReplay damages.
func fuzzBase() []core.RoundRecord {
	g := pattern.Group{Name: "g", Members: []pattern.Pattern{{1, 0}}}
	return []core.RoundRecord{
		{Round: 0, Sets: []core.SetRequest{{IDs: []dataset.ObjectID{1, 2}, Group: g}}, SetAnswers: []bool{true}},
		{Round: 1, Points: []dataset.ObjectID{3, 4}, PointAnswers: [][]int{{0}, {1}}},
		{Round: 2, Sets: []core.SetRequest{{IDs: []dataset.ObjectID{5}, Group: g, Reverse: true}}, SetAnswers: []bool{false}},
		{Round: 3, Points: []dataset.ObjectID{6}, PointAnswers: [][]int{{1}}, ErrKind: "transient"},
	}
}

// FuzzJournalReplay drives the recovery line between torn tails and
// corruption: starting from a valid journal — written by the current
// codec, or the CVGJNL01 fixture — the fuzzer truncates the file,
// appends a zero fill as an unclosed preallocated journal has, and/or
// flips one byte anywhere. Load must then either fail loudly
// (ErrCorrupt) or return an exact prefix of the original records —
// never a torn or damaged record passed off as a committed round — and
// must fail when the flip lands past a whole zeroed header of the fill.
// Open, when it succeeds, must agree with Load and leave a CVGJNL02
// file that appends and reloads cleanly.
func FuzzJournalReplay(f *testing.F) {
	f.Add(uint16(0), uint16(0), false, uint16(0), false)         // truncated to zero length: torn Create
	f.Add(uint16(3), uint16(0), false, uint16(0), false)         // truncated into the magic: torn header
	f.Add(uint16(8), uint16(0), false, uint16(0), false)         // truncated to the magic only: empty journal
	f.Add(uint16(20), uint16(0), false, uint16(0), false)        // truncated mid-frame
	f.Add(uint16(0), uint16(9), true, uint16(0), false)          // flip inside first frame header
	f.Add(uint16(0), uint16(40), true, uint16(0), false)         // flip inside a payload
	f.Add(uint16(1000), uint16(1), true, uint16(0), false)       // flip inside the magic
	f.Add(uint16(500), uint16(500), true, uint16(0), false)      // flip near the tail
	f.Add(uint16(12), uint16(12), true, uint16(0), false)        // truncate and flip
	f.Add(uint16(65535), uint16(0), false, uint16(4096), false)  // unclosed: the zero tail of an extent
	f.Add(uint16(40), uint16(0), false, uint16(512), false)      // torn frame followed by zeros
	f.Add(uint16(65535), uint16(65535), true, uint16(64), false) // zeroed header, then one nonzero byte
	f.Add(uint16(65535), uint16(0), false, uint16(4096), true)   // CVGJNL01 with a zero tail
	f.Add(uint16(300), uint16(0), false, uint16(100), true)      // CVGJNL01 torn frame followed by zeros
	f.Add(uint16(65535), uint16(65535), true, uint16(64), true)  // CVGJNL01 zeroed header, then a nonzero byte

	v1, err := os.ReadFile(v1SampleFixture)
	if err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, truncAt, flipAt uint16, flip bool, zeros uint16, useV1 bool) {
		dir := t.TempDir()
		path := filepath.Join(dir, "audit.jnl")
		base, data := sampleRecords(), v1
		if !useV1 {
			base = fuzzBase()
			writeJournal(t, path, base)
			var err error
			if data, err = os.ReadFile(path); err != nil {
				t.Fatal(err)
			}
		}

		mutated := append([]byte(nil), data...)
		if n := int(truncAt) % (len(mutated) + 1); n < len(mutated) && truncAt != 65535 {
			mutated = mutated[:n]
		}
		framesEnd := len(mutated)
		mutated = append(mutated, make([]byte, zeros)...)
		flipPos := -1
		if flip && len(mutated) > 0 {
			if flipAt == 65535 {
				flipAt = uint16(len(mutated) - 1) // the last byte: past every header of a long fill
			}
			flipPos = int(flipAt) % len(mutated)
			mutated[flipPos] ^= 1 << (flipAt % 8)
		}
		if err := os.WriteFile(path, mutated, 0o644); err != nil {
			t.Fatal(err)
		}
		// The original frames are intact and a whole zeroed header of
		// the fill precedes the flipped byte.
		mustFail := framesEnd == len(data) && flipPos >= framesEnd+frameHeaderSize

		recs, err := Load(path)
		if err != nil {
			// A loud failure must be the classified corruption error —
			// never a decode panic or a stray I/O error.
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Load failed with unclassified error: %v", err)
			}
			return
		}
		if mustFail {
			t.Fatalf("Load accepted a nonzero byte at %d behind a zeroed header at %d", flipPos, framesEnd)
		}
		if len(recs) > len(base) {
			t.Fatalf("recovered %d records from a %d-record journal", len(recs), len(base))
		}
		for i, rec := range recs {
			if !recordsEqual([]core.RoundRecord{rec}, base[i:i+1]) {
				t.Fatalf("recovered record %d diverged from the original:\n%+v\nvs\n%+v", i, rec, base[i])
			}
		}

		// Open must recover the same prefix and leave an appendable file.
		j2, replay, err := Open(path)
		if err != nil {
			t.Fatalf("Load recovered %d records but Open failed: %v", len(recs), err)
		}
		if len(replay) != len(recs) {
			t.Fatalf("Open recovered %d records, Load %d", len(replay), len(recs))
		}
		next := core.RoundRecord{Round: len(recs), Points: []dataset.ObjectID{99}, PointAnswers: [][]int{{7}}}
		if err := j2.Append(next); err != nil {
			t.Fatal(err)
		}
		if err := j2.Close(); err != nil {
			t.Fatal(err)
		}
		final, err := Load(path)
		if err != nil {
			t.Fatalf("reload after recovery+append: %v", err)
		}
		if len(final) != len(recs)+1 {
			t.Fatalf("after recovery+append: %d records, want %d", len(final), len(recs)+1)
		}
		head, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(head, []byte(magic)) {
			t.Fatalf("recovered journal starts %q, want %q", head[:min(len(head), len(magic))], magic)
		}
	})
}

// FuzzRecordCodec: decoding arbitrary bytes never panics, fails only
// as a malformed record, and any payload the decoder accepts
// re-encodes to the same bytes — also when the decoder already holds
// the groups of an earlier record and shares them.
func FuzzRecordCodec(f *testing.F) {
	for _, rec := range append(sampleRecords(), fuzzBase()...) {
		payload, err := encodeRecord(nil, rec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
	}
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{0x80, 0x00, 0, 0})

	f.Fuzz(func(t *testing.T, payload []byte) {
		var d decoder
		for pass := 0; pass < 2; pass++ {
			rec, err := d.decode(payload)
			if err != nil {
				if !errors.Is(err, errMalformed) {
					t.Fatalf("decode failed with unclassified error: %v", err)
				}
				return
			}
			out, err := encodeRecord(nil, rec)
			if err != nil {
				t.Fatalf("decoded record does not encode: %v\n%+v", err, rec)
			}
			if !bytes.Equal(out, payload) {
				t.Fatalf("pass %d: decode then encode changed the payload:\n%x\n%x", pass, payload, out)
			}
		}
	})
}
