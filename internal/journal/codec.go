package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"imagecvg/internal/core"
	"imagecvg/internal/dataset"
	"imagecvg/internal/pattern"
)

// This file is the CVGJNL02 payload codec: one core.RoundRecord as
//
//	uvarint round
//	byte    kind      0 set round, 1 point round
//	byte    err kind  0 "", 1 "budget", 2 "transient"
//	varint  spent Point, Set, ReverseSet, Denied
//	8 bytes spent Spend, float64 bits little-endian
//
// then, for a set round,
//
//	uvarint n requests, each
//	  byte    flags  bit 0 reverse, bit 1 same group as the previous request
//	  uvarint n ids, varint each id
//	  group (unless bit 1): uvarint name length, name bytes,
//	    uvarint n members, each uvarint n slots, varint each slot
//	uvarint n answers, ceil(n/8) bytes of answer bits (LSB first)
//
// and, for a point round,
//
//	uvarint n ids, varint each id
//	uvarint n answers, each uvarint label count + 1 (0 for a nil
//	  vector), varint each label
//
// The encoding is canonical: varints are minimal, unused flag and
// answer bits are zero, a request repeats its predecessor's group only
// through bit 1, and nothing trails the record. The decoder rejects
// anything else, so every payload it accepts re-encodes to the same
// bytes.

// Round kinds.
const (
	kindSet   = 0
	kindPoint = 1
)

// Request flag bits.
const (
	flagReverse   = 1 << 0
	flagSameGroup = 1 << 1
)

// errKinds maps the err-kind byte to RoundRecord.ErrKind.
var errKinds = [...]string{"", "budget", "transient"}

// encodeRecord appends rec's payload to buf.
func encodeRecord(buf []byte, rec core.RoundRecord) ([]byte, error) {
	point := rec.IsPointRound()
	if point && (len(rec.Sets) > 0 || len(rec.SetAnswers) > 0) || !point && len(rec.PointAnswers) > 0 {
		return buf, fmt.Errorf("journal: round %d mixes set and point queries", rec.Round)
	}
	kind := byte(kindSet)
	if point {
		kind = kindPoint
	}
	errKind := -1
	for i, k := range errKinds {
		if k == rec.ErrKind {
			errKind = i
		}
	}
	if errKind < 0 {
		return buf, fmt.Errorf("journal: round %d has unknown outcome %q", rec.Round, rec.ErrKind)
	}
	buf = binary.AppendUvarint(buf, uint64(rec.Round))
	buf = append(buf, kind, byte(errKind))
	s := rec.Spent
	for _, v := range [...]int{s.Point, s.Set, s.ReverseSet, s.Denied} {
		buf = binary.AppendVarint(buf, int64(v))
	}
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(s.Spend))

	if kind == kindPoint {
		buf = appendIDs(buf, rec.Points)
		buf = binary.AppendUvarint(buf, uint64(len(rec.PointAnswers)))
		for _, labels := range rec.PointAnswers {
			if labels == nil {
				buf = append(buf, 0)
				continue
			}
			buf = binary.AppendUvarint(buf, uint64(len(labels))+1)
			for _, l := range labels {
				buf = binary.AppendVarint(buf, int64(l))
			}
		}
		return buf, nil
	}

	buf = binary.AppendUvarint(buf, uint64(len(rec.Sets)))
	for i, req := range rec.Sets {
		var flags byte
		if req.Reverse {
			flags |= flagReverse
		}
		same := i > 0 && groupsEqual(req.Group, rec.Sets[i-1].Group)
		if same {
			flags |= flagSameGroup
		}
		buf = append(buf, flags)
		buf = appendIDs(buf, req.IDs)
		if same {
			continue
		}
		buf = binary.AppendUvarint(buf, uint64(len(req.Group.Name)))
		buf = append(buf, req.Group.Name...)
		buf = binary.AppendUvarint(buf, uint64(len(req.Group.Members)))
		for _, p := range req.Group.Members {
			buf = binary.AppendUvarint(buf, uint64(len(p)))
			for _, slot := range p {
				buf = binary.AppendVarint(buf, int64(slot))
			}
		}
	}
	buf = binary.AppendUvarint(buf, uint64(len(rec.SetAnswers)))
	var bits byte
	for i, a := range rec.SetAnswers {
		if a {
			bits |= 1 << (i % 8)
		}
		if i%8 == 7 || i == len(rec.SetAnswers)-1 {
			buf = append(buf, bits)
			bits = 0
		}
	}
	return buf, nil
}

// appendIDs appends a length-prefixed id list.
func appendIDs(buf []byte, ids []dataset.ObjectID) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(ids)))
	for _, id := range ids {
		buf = binary.AppendVarint(buf, int64(id))
	}
	return buf
}

// groupsEqual compares groups by value.
func groupsEqual(a, b pattern.Group) bool {
	if a.Name != b.Name || len(a.Members) != len(b.Members) {
		return false
	}
	for i := range a.Members {
		if len(a.Members[i]) != len(b.Members[i]) {
			return false
		}
		for k := range a.Members[i] {
			if a.Members[i][k] != b.Members[i][k] {
				return false
			}
		}
	}
	return true
}

// errMalformed is the cause of every payload decode failure; readAll
// wraps it in ErrCorrupt with the frame's offset.
var errMalformed = errors.New("malformed record")

// decoder turns CVGJNL02 payloads into records. The slices of every
// record it returns are carved out of a few shared backing arrays, so
// decoding a journal allocates per backing chunk, not per record. A
// group equal to the previously decoded one is shared, name and
// members, instead of decoded again, so records may share group
// values: decoded records are read-only. Every slice's capacity is
// clipped to its length, so an append copies instead of overwriting a
// neighbour.
type decoder struct {
	ids     []dataset.ObjectID
	ints    []int
	pats    []pattern.Pattern
	reqs    []core.SetRequest
	bools   []bool
	answers [][]int
	group   pattern.Group // the last decoded group
}

// take carves n elements off the front of an arena, starting a new
// backing chunk when the current one is full.
func take[T any](arena *[]T, n int) []T {
	a := *arena
	if n > cap(a)-len(a) {
		a = make([]T, 0, max(n, 2*cap(a), 64))
	}
	*arena = a[:len(a)+n]
	return a[len(a) : len(a)+n : len(a)+n]
}

// reader is a bounds-checked cursor over one payload. The first failed
// read sets err; later reads return zero values.
type reader struct {
	b   []byte
	err error
}

func (r *reader) fail() {
	if r.err == nil {
		r.err = errMalformed
	}
	r.b = nil
}

// u8 reads one byte.
func (r *reader) u8() byte {
	if len(r.b) == 0 {
		r.fail()
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c
}

// uvarint reads a minimal unsigned varint.
func (r *reader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 || (n > 1 && r.b[n-1] == 0) {
		r.fail()
		return 0
	}
	r.b = r.b[n:]
	return v
}

// int reads a minimal signed varint that fits an int.
func (r *reader) int() int {
	v, n := binary.Varint(r.b)
	if n <= 0 || (n > 1 && r.b[n-1] == 0) || int64(int(v)) != v {
		r.fail()
		return 0
	}
	r.b = r.b[n:]
	return int(v)
}

// count reads a length prefix. Every counted element takes at least
// one byte (or, with perByte 8, one bit) of what remains, which bounds
// what a damaged length can make the decoder allocate.
func (r *reader) count(perByte int) int {
	v := r.uvarint()
	if v > uint64(len(r.b))*uint64(perByte) {
		r.fail()
		return 0
	}
	return int(v)
}

// decode parses one payload.
func (d *decoder) decode(payload []byte) (core.RoundRecord, error) {
	r := reader{b: payload}
	var rec core.RoundRecord
	round := r.uvarint()
	if round > math.MaxInt {
		r.fail()
	}
	rec.Round = int(round)
	kind, errKind := r.u8(), r.u8()
	if kind > kindPoint || int(errKind) >= len(errKinds) {
		r.fail()
	}
	rec.Spent.Point, rec.Spent.Set, rec.Spent.ReverseSet, rec.Spent.Denied = r.int(), r.int(), r.int(), r.int()
	if len(r.b) < 8 {
		r.fail()
	} else {
		rec.Spent.Spend = math.Float64frombits(binary.LittleEndian.Uint64(r.b))
		r.b = r.b[8:]
	}
	if r.err != nil {
		return core.RoundRecord{}, r.err
	}
	rec.ErrKind = errKinds[errKind]

	if kind == kindPoint {
		rec.Points = d.readIDs(&r)
		if rec.Points == nil {
			rec.Points = []dataset.ObjectID{} // a point round's Points is never nil
		}
		rec.PointAnswers = take(&d.answers, r.count(1))
		for i := range rec.PointAnswers {
			n := r.uvarint()
			if n == 0 {
				continue // a nil vector
			}
			if n == 1 {
				rec.PointAnswers[i] = []int{}
				continue
			}
			if n-1 > uint64(len(r.b)) {
				r.fail()
				break
			}
			labels := take(&d.ints, int(n-1))
			for k := range labels {
				labels[k] = r.int()
			}
			rec.PointAnswers[i] = labels
		}
	} else {
		rec.Sets = take(&d.reqs, r.count(1))
		for i := range rec.Sets {
			req := &rec.Sets[i]
			flags := r.u8()
			if flags&^(flagReverse|flagSameGroup) != 0 || (i == 0 && flags&flagSameGroup != 0) {
				r.fail()
				break
			}
			req.Reverse = flags&flagReverse != 0
			req.IDs = d.readIDs(&r)
			if flags&flagSameGroup != 0 {
				req.Group = rec.Sets[i-1].Group
				continue
			}
			req.Group = d.readGroup(&r)
			if i > 0 && groupsEqual(req.Group, rec.Sets[i-1].Group) {
				r.fail() // not canonical: bit 1 encodes a repeated group
				break
			}
		}
		n := r.count(8)
		bits := r.b[:(n+7)/8]
		r.b = r.b[len(bits):]
		if n%8 != 0 && bits[len(bits)-1]>>(n%8) != 0 {
			r.fail() // bits past the last answer must be zero
		}
		rec.SetAnswers = take(&d.bools, n)
		for i := range rec.SetAnswers {
			rec.SetAnswers[i] = bits[i/8]>>(i%8)&1 != 0
		}
	}
	if r.err == nil && len(r.b) != 0 {
		r.fail() // trailing bytes
	}
	if r.err != nil {
		return core.RoundRecord{}, r.err
	}
	return rec, nil
}

// readIDs reads a length-prefixed id list; an empty list is nil.
func (d *decoder) readIDs(r *reader) []dataset.ObjectID {
	n := r.count(1)
	if n == 0 {
		return nil
	}
	ids := take(&d.ids, n)
	for i := range ids {
		ids[i] = dataset.ObjectID(r.int())
	}
	return ids
}

// readGroup reads a group. When it equals the last group decoded, the
// arenas are rolled back and that group is shared instead.
func (d *decoder) readGroup(r *reader) pattern.Group {
	ints, pats := d.ints, d.pats
	name := r.b[:r.count(1)]
	r.b = r.b[len(name):]
	members := take(&d.pats, r.count(1))
	for i := range members {
		slots := take(&d.ints, r.count(1))
		for k := range slots {
			slots[k] = r.int()
		}
		members[i] = slots
	}
	if r.err != nil {
		return pattern.Group{}
	}
	g := pattern.Group{Name: d.group.Name, Members: members}
	if string(name) == d.group.Name && groupsEqual(g, d.group) {
		d.ints, d.pats = ints, pats
		return d.group
	}
	g.Name = string(name)
	d.group = g
	return g
}
