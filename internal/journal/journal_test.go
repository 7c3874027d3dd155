package journal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"imagecvg/internal/core"
	"imagecvg/internal/dataset"
	"imagecvg/internal/pattern"
)

var _ core.RoundJournal = (*Journal)(nil)

// sampleRecords covers both round kinds, partial-prefix outcomes and a
// governor snapshot.
func sampleRecords() []core.RoundRecord {
	g := pattern.Group{Name: "minority", Members: []pattern.Pattern{{0, 1}, {1, -1}}}
	return []core.RoundRecord{
		{
			Round: 0,
			Sets: []core.SetRequest{
				{IDs: []dataset.ObjectID{1, 2, 3}, Group: g},
				{IDs: []dataset.ObjectID{4, 5}, Group: g, Reverse: true},
			},
			SetAnswers: []bool{true, false},
			Spent:      core.BudgetSpent{Set: 1, ReverseSet: 1, Spend: 2},
		},
		{
			Round:        1,
			Points:       []dataset.ObjectID{7, 8, 9},
			PointAnswers: [][]int{{0, 1}, {1, 0}, {2, 2}},
			Spent:        core.BudgetSpent{Set: 1, ReverseSet: 1, Point: 3, Spend: 5},
		},
		{
			Round:      2,
			Sets:       []core.SetRequest{{IDs: []dataset.ObjectID{10}, Group: g}},
			SetAnswers: []bool{},
			ErrKind:    "budget",
			Spent:      core.BudgetSpent{Set: 1, ReverseSet: 1, Point: 3, Spend: 5, Denied: 1},
		},
	}
}

// writeJournal creates a journal at path holding recs.
func writeJournal(t *testing.T, path string, recs []core.RoundRecord) {
	t.Helper()
	j, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

// recordsEqual compares record slices modulo JSON nil-vs-empty slice
// differences, by round-tripping expectations is overkill — instead
// compare the fields that carry meaning.
func recordsEqual(a, b []core.RoundRecord) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Round != b[i].Round || a[i].ErrKind != b[i].ErrKind ||
			!reflect.DeepEqual(a[i].Spent, b[i].Spent) ||
			len(a[i].Sets) != len(b[i].Sets) || len(a[i].Points) != len(b[i].Points) ||
			len(a[i].SetAnswers) != len(b[i].SetAnswers) || len(a[i].PointAnswers) != len(b[i].PointAnswers) {
			return false
		}
		for k := range a[i].Sets {
			if !reflect.DeepEqual(a[i].Sets[k], b[i].Sets[k]) {
				return false
			}
		}
		for k := range a[i].SetAnswers {
			if a[i].SetAnswers[k] != b[i].SetAnswers[k] {
				return false
			}
		}
		for k := range a[i].Points {
			if a[i].Points[k] != b[i].Points[k] {
				return false
			}
		}
		for k := range a[i].PointAnswers {
			if !reflect.DeepEqual(a[i].PointAnswers[k], b[i].PointAnswers[k]) {
				return false
			}
		}
	}
	return true
}

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "audit.jnl")
	recs := sampleRecords()
	writeJournal(t, path, recs)

	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !recordsEqual(loaded, recs) {
		t.Fatalf("loaded records diverged:\n%+v\nvs\n%+v", loaded, recs)
	}

	// Open resumes: replay records match, appends continue the sequence.
	j, replay, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if !recordsEqual(replay, recs) {
		t.Fatalf("Open replay records diverged")
	}
	next := core.RoundRecord{Round: 3, Points: []dataset.ObjectID{11}, PointAnswers: [][]int{{1, 1}}}
	if err := j.Append(next); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	loaded, err = Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != 4 || loaded[3].Round != 3 {
		t.Fatalf("resumed append not persisted: %+v", loaded)
	}
}

func TestJournalTornTailRecovers(t *testing.T) {
	recs := sampleRecords()
	// Torn variants: partial header, partial payload, final-frame CRC
	// damage. Each must recover to the complete prefix.
	tears := []struct {
		name string
		tear func([]byte) []byte
	}{
		{"partial header", func(b []byte) []byte { return append(b, 0x03, 0x00) }},
		{"partial payload", func(b []byte) []byte {
			return append(b, 0x40, 0x00, 0x00, 0x00, 0xde, 0xad, 0xbe, 0xef, 'x', 'y')
		}},
		{"final frame crc", func(b []byte) []byte {
			b[len(b)-1] ^= 0xff
			return b
		}},
	}
	for _, tc := range tears {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "audit.jnl")
			writeJournal(t, path, recs)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tc.tear(append([]byte(nil), data...)), 0o644); err != nil {
				t.Fatal(err)
			}

			wantLen := len(recs)
			if tc.name == "final frame crc" {
				wantLen-- // the damaged final frame is the torn record
			}
			loaded, err := Load(path)
			if err != nil {
				t.Fatalf("Load after %s: %v", tc.name, err)
			}
			if !recordsEqual(loaded, recs[:wantLen]) {
				t.Fatalf("recovered %d records, want prefix of %d", len(loaded), wantLen)
			}

			// Open truncates the tear and appending resumes cleanly.
			j, replay, err := Open(path)
			if err != nil {
				t.Fatal(err)
			}
			if len(replay) != wantLen {
				t.Fatalf("Open recovered %d records, want %d", len(replay), wantLen)
			}
			if err := j.Append(core.RoundRecord{Round: wantLen, Points: []dataset.ObjectID{42}, PointAnswers: [][]int{{0}}}); err != nil {
				t.Fatal(err)
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			loaded, err = Load(path)
			if err != nil {
				t.Fatal(err)
			}
			if len(loaded) != wantLen+1 {
				t.Fatalf("after recovery+append: %d records, want %d", len(loaded), wantLen+1)
			}
		})
	}
}

func TestJournalCorruptionIsLoud(t *testing.T) {
	recs := sampleRecords()
	cases := []struct {
		name    string
		corrupt func([]byte) []byte
	}{
		{"bad magic", func(b []byte) []byte { b[0] ^= 0xff; return b }},
		{"mid-file payload flip", func(b []byte) []byte { b[len(magic)+frameHeaderSize+2] ^= 0x01; return b }},
		// A short file only counts as a torn header when it is a strict
		// prefix of the magic; short content that diverges is a
		// different file format and stays loud.
		{"short non-prefix", func(b []byte) []byte { b[0] ^= 0xff; return b[:4] }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "audit.jnl")
			writeJournal(t, path, recs)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tc.corrupt(append([]byte(nil), data...)), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := Load(path); !errors.Is(err, ErrCorrupt) {
				t.Errorf("Load = %v, want ErrCorrupt", err)
			}
			if _, _, err := Open(path); !errors.Is(err, ErrCorrupt) {
				t.Errorf("Open = %v, want ErrCorrupt", err)
			}
		})
	}
}

// TestJournalTornHeaderIsEmpty pins the classification of files shorter
// than the magic: a zero-length file or any strict prefix of the magic
// is the wreckage of a crash inside Create — an empty journal that
// resumes from round 0 — not corruption. Open must rewrite the header
// so the recovered file accepts appends and reloads cleanly.
func TestJournalTornHeaderIsEmpty(t *testing.T) {
	cases := []struct {
		name    string
		content []byte
	}{
		{"zero length", []byte{}},
		{"one magic byte", []byte(magic)[:1]},
		{"partial magic", []byte(magic)[:5]},
		{"magic only", []byte(magic)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "audit.jnl")
			if err := os.WriteFile(path, tc.content, 0o644); err != nil {
				t.Fatal(err)
			}
			recs, err := Load(path)
			if err != nil {
				t.Fatalf("Load = %v, want empty journal", err)
			}
			if len(recs) != 0 {
				t.Fatalf("Load returned %d records from a header-only file", len(recs))
			}
			j, replay, err := Open(path)
			if err != nil {
				t.Fatalf("Open = %v, want empty journal", err)
			}
			if len(replay) != 0 {
				t.Fatalf("Open returned %d replay records", len(replay))
			}
			if err := j.Append(core.RoundRecord{Round: 0, Points: []dataset.ObjectID{1}, PointAnswers: [][]int{{0}}}); err != nil {
				t.Fatal(err)
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			loaded, err := Load(path)
			if err != nil {
				t.Fatalf("reload after header recovery: %v", err)
			}
			if len(loaded) != 1 || loaded[0].Round != 0 {
				t.Fatalf("reload after header recovery: %+v", loaded)
			}
		})
	}
}

func TestJournalAppendSequence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "audit.jnl")
	j, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(core.RoundRecord{Round: 2}); err == nil {
		t.Error("out-of-sequence append succeeded")
	}
	if err := j.Append(core.RoundRecord{Round: 0, Points: []dataset.ObjectID{1}, PointAnswers: [][]int{{0}}}); err != nil {
		t.Fatal(err)
	}
	if j.Rounds() != 1 {
		t.Errorf("Rounds() = %d, want 1", j.Rounds())
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(core.RoundRecord{Round: 1}); err == nil {
		t.Error("append to closed journal succeeded")
	}
}

// withZeros returns data followed by n zero bytes.
func withZeros(data []byte, n int) []byte {
	return append(append([]byte(nil), data...), make([]byte, n)...)
}

// reopenAppend opens the journal at path, checks it replays want,
// appends one more round and checks a reload returns want plus it, in
// a CVGJNL02 file.
func reopenAppend(t *testing.T, path string, want []core.RoundRecord) {
	t.Helper()
	j, replay, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if !recordsEqual(replay, want) {
		t.Fatalf("Open replayed %d records, want %d", len(replay), len(want))
	}
	next := core.RoundRecord{Round: len(want), Points: []dataset.ObjectID{42}, PointAnswers: [][]int{{0}}}
	if err := j.Append(next); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data[:len(magic)]) != magic {
		t.Fatalf("after Open and Append the file starts %q, want %q", data[:len(magic)], magic)
	}
	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !recordsEqual(loaded, append(append([]core.RoundRecord(nil), want...), next)) {
		t.Fatalf("reload returned %d records, want %d", len(loaded), len(want)+1)
	}
}

// TestZeroTailIsEndOfLog: zeros after the last frame — the unused
// part of a preallocated extent, or what a crash leaves on a file
// system that zero-fills — end the log in either codec version; they
// are not corruption.
func TestZeroTailIsEndOfLog(t *testing.T) {
	v1, err := os.ReadFile(v1SampleFixture)
	if err != nil {
		t.Fatal(err)
	}
	v2Path := filepath.Join(t.TempDir(), "v2.jnl")
	writeJournal(t, v2Path, sampleRecords())
	v2, err := os.ReadFile(v2Path)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		data []byte
	}{{"v1", v1}, {"v2", v2}} {
		for _, zeros := range []int{1, 7, 8, 4096} {
			t.Run(fmt.Sprintf("%s+%d", tc.name, zeros), func(t *testing.T) {
				path := filepath.Join(t.TempDir(), "audit.jnl")
				if err := os.WriteFile(path, withZeros(tc.data, zeros), 0o644); err != nil {
					t.Fatal(err)
				}
				recs, err := Load(path)
				if err != nil {
					t.Fatalf("Load: %v", err)
				}
				if !recordsEqual(recs, sampleRecords()) {
					t.Fatalf("Load returned %d records, want %d", len(recs), len(sampleRecords()))
				}
				reopenAppend(t, path, sampleRecords())
			})
		}
	}
}

// TestZeroedHeaderThenDataIsCorrupt: a zeroed frame header followed by
// any nonzero byte is not a zero fill, and fails loudly.
func TestZeroedHeaderThenDataIsCorrupt(t *testing.T) {
	v1, err := os.ReadFile(v1SampleFixture)
	if err != nil {
		t.Fatal(err)
	}
	v2Path := filepath.Join(t.TempDir(), "v2.jnl")
	writeJournal(t, v2Path, sampleRecords())
	v2, err := os.ReadFile(v2Path)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		data []byte
	}{{"v1", v1}, {"v2", v2}} {
		for _, at := range []int{frameHeaderSize, frameHeaderSize + 1, 300} {
			t.Run(fmt.Sprintf("%s@%d", tc.name, at), func(t *testing.T) {
				data := withZeros(tc.data, 512)
				data[len(tc.data)+at] = 1
				path := filepath.Join(t.TempDir(), "audit.jnl")
				if err := os.WriteFile(path, data, 0o644); err != nil {
					t.Fatal(err)
				}
				if _, err := Load(path); !errors.Is(err, ErrCorrupt) {
					t.Errorf("Load = %v, want ErrCorrupt", err)
				}
				if _, _, err := Open(path); !errors.Is(err, ErrCorrupt) {
					t.Errorf("Open = %v, want ErrCorrupt", err)
				}
			})
		}
	}
}

// TestTornFrameBeforeZerosRecovers: a frame that fails its checksum
// with only zeros behind it is a torn tail in a preallocated file.
func TestTornFrameBeforeZerosRecovers(t *testing.T) {
	recs := sampleRecords()
	path := filepath.Join(t.TempDir(), "audit.jnl")
	writeJournal(t, path, recs)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Zero the second half of the last frame, as a crash that wrote only
	// its first sectors leaves it, then add the extent's zero fill.
	data = withZeros(data, 1024)
	last := len(data) - 1024
	clear(data[last-4 : last])
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if !recordsEqual(loaded, recs[:len(recs)-1]) {
		t.Fatalf("recovered %d records, want %d", len(loaded), len(recs)-1)
	}
	reopenAppend(t, path, recs[:len(recs)-1])
}

// TestOpenLeavesFileAtLastFrame: Open cuts the file to its last
// complete frame and preallocates nothing, so a resume that appends no
// round leaves no extent behind, closed or not.
func TestOpenLeavesFileAtLastFrame(t *testing.T) {
	recs := sampleRecords()
	path := filepath.Join(t.TempDir(), "audit.jnl")
	writeJournal(t, path, recs)
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"closed", clean},
		{"unclosed extent", withZeros(clean, extent-len(clean))},
		{"torn tail", append(append([]byte(nil), clean...), 0x40, 0, 0, 0, 0xde, 0xad, 'x')},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := os.WriteFile(path, tc.data, 0o644); err != nil {
				t.Fatal(err)
			}
			j, replay, err := Open(path)
			if err != nil {
				t.Fatal(err)
			}
			if !recordsEqual(replay, recs) {
				t.Fatalf("Open replayed %d records, want %d", len(replay), len(recs))
			}
			fi, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if fi.Size() != int64(len(clean)) {
				t.Errorf("after Open the file is %d bytes, want its last frame's end %d", fi.Size(), len(clean))
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			if got, err := os.ReadFile(path); err != nil || string(got) != string(clean) {
				t.Errorf("Open and Close changed the journal (%v)", err)
			}
		})
	}
}

// TestTornTailThenAppendReloadsEveryRound: after Open cuts a torn tail
// longer than the frames appended next, a reader of the unclosed file
// (as after a crash) and of the closed one sees every round.
func TestTornTailThenAppendReloadsEveryRound(t *testing.T) {
	recs := sampleRecords()
	path := filepath.Join(t.TempDir(), "audit.jnl")
	writeJournal(t, path, recs)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// A frame header declaring 4 KiB, followed by 2 KiB of nonzero junk.
	tail := []byte{0x00, 0x10, 0, 0, 0xde, 0xad, 0xbe, 0xef}
	for range 2048 {
		tail = append(tail, 0xa5)
	}
	if err := os.WriteFile(path, append(data, tail...), 0o644); err != nil {
		t.Fatal(err)
	}
	j, replay, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if !recordsEqual(replay, recs) {
		t.Fatalf("Open replayed %d records, want %d", len(replay), len(recs))
	}
	want := append([]core.RoundRecord(nil), recs...)
	for r := len(recs); r < len(recs)+2; r++ {
		rec := core.RoundRecord{Round: r, Points: []dataset.ObjectID{dataset.ObjectID(r)}, PointAnswers: [][]int{{1}}}
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
		want = append(want, rec)
	}
	loaded, err := Load(path)
	if err != nil {
		t.Fatalf("Load of the unclosed journal: %v", err)
	}
	if !recordsEqual(loaded, want) {
		t.Fatalf("unclosed journal reloads %d records, want %d", len(loaded), len(want))
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if loaded, err = Load(path); err != nil || !recordsEqual(loaded, want) {
		t.Fatalf("closed journal reloads %d records (%v), want %d", len(loaded), err, len(want))
	}
}

// TestPreallocatedExtents: an open journal holds a whole preallocated
// extent that reads as the end of the log, and Close cuts it back to
// the magic plus the frames.
func TestPreallocatedExtents(t *testing.T) {
	path := filepath.Join(t.TempDir(), "audit.jnl")
	j, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	var frames int64 = int64(len(magic))
	for _, rec := range sampleRecords() {
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
		frame, err := appendFrame(nil, rec)
		if err != nil {
			t.Fatal(err)
		}
		frames += int64(len(frame))
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if j.prealloc && fi.Size() != extent {
		t.Errorf("open journal is %d bytes, want one %d-byte extent", fi.Size(), extent)
	}
	if !j.prealloc && fi.Size() != frames {
		t.Errorf("journal without preallocation is %d bytes, want %d", fi.Size(), frames)
	}
	// A reader sees the records of the unclosed file, as after a crash.
	recs, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !recordsEqual(recs, sampleRecords()) {
		t.Fatalf("Load of the open journal returned %d records", len(recs))
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if fi, err = os.Stat(path); err != nil {
		t.Fatal(err)
	}
	if fi.Size() != frames {
		t.Errorf("closed journal is %d bytes, want %d", fi.Size(), frames)
	}

	// Appends that outgrow the first extent grow the file by whole
	// extents.
	big := core.RoundRecord{Points: make([]dataset.ObjectID, 100_000), PointAnswers: [][]int{}}
	for i := range big.Points {
		big.Points[i] = dataset.ObjectID(i)
	}
	j, _, err = Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for r := 3; r < 8; r++ {
		big.Round = r
		if err := j.Append(big); err != nil {
			t.Fatal(err)
		}
	}
	if fi, err = os.Stat(path); err != nil {
		t.Fatal(err)
	}
	if j.prealloc && fi.Size()%extent != 0 {
		t.Errorf("grown journal is %d bytes, not whole extents", fi.Size())
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err = Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 8 || len(recs[7].Points) != len(big.Points) {
		t.Fatalf("after growth: %d records", len(recs))
	}
}

// TestOpenUpgradesV1: Open rewrites a CVGJNL01 journal as CVGJNL02
// before appending, keeping the file's permissions and leaving no
// temporary file behind.
func TestOpenUpgradesV1(t *testing.T) {
	path := copyFixture(t, v1SampleFixture)
	if err := os.Chmod(path, 0o640); err != nil {
		t.Fatal(err)
	}
	reopenAppend(t, path, sampleRecords())
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if runtime.GOOS != "windows" && fi.Mode().Perm() != 0o640 {
		t.Errorf("upgraded journal has mode %v, want 0640", fi.Mode().Perm())
	}
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("directory holds %d entries after the upgrade, want only the journal", len(entries))
	}
}

// TestCodecKeepsRecordShape: the binary codec keeps what the JSON
// codec lost or never had to carry: nil and empty label vectors,
// exact spend bits, an empty point round, shared groups.
func TestCodecKeepsRecordShape(t *testing.T) {
	g := pattern.Group{Name: "f", Members: []pattern.Pattern{{1, -1}}}
	h := pattern.Group{Name: "f", Members: []pattern.Pattern{{1, 0}}}
	recs := []core.RoundRecord{
		{Round: 0, Points: []dataset.ObjectID{1, 2, 3}, PointAnswers: [][]int{nil, {}, {-1, 7}},
			Spent: core.BudgetSpent{Point: 3, Spend: 0.1 + 0.2}},
		{Round: 1, Points: []dataset.ObjectID{4}, PointAnswers: [][]int{}, ErrKind: "budget"},
		{Round: 2, Sets: []core.SetRequest{
			{IDs: []dataset.ObjectID{1}, Group: g},
			{IDs: []dataset.ObjectID{2}, Group: g, Reverse: true},
			{IDs: []dataset.ObjectID{3}, Group: h},
			{IDs: []dataset.ObjectID{4}, Group: g},
		}, SetAnswers: []bool{true, false, true, true, false, false, false, false, true}, ErrKind: "transient"},
	}
	var d decoder
	for _, rec := range recs {
		payload, err := encodeRecord(nil, rec)
		if err != nil {
			t.Fatal(err)
		}
		got, err := d.decode(payload)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, rec) {
			t.Errorf("round %d decoded as\n%+v\nwant\n%+v", rec.Round, got, rec)
		}
	}

	for _, bad := range []core.RoundRecord{
		{Points: []dataset.ObjectID{1}, SetAnswers: []bool{true}},
		{Sets: []core.SetRequest{{IDs: []dataset.ObjectID{1}}}, PointAnswers: [][]int{{0}}},
		{Points: []dataset.ObjectID{1}, ErrKind: "hard"},
	} {
		if _, err := encodeRecord(nil, bad); err == nil {
			t.Errorf("encoded %+v", bad)
		}
	}
}
