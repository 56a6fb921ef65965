// Package codec decides how bytes look: the shard wire protocol, the
// write-ahead log and the snapshot file are walks over its Cursor,
// little-endian throughout, and the wire and the WAL share one Frame. A walk
// states a layout once; the same statements append the fields when encoding
// and read-and-check them when decoding, so the directions cannot drift.
// Items are id int32, priority float64, then dim float64 coordinates.
package codec

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"

	"pimkd/internal/core"
	"pimkd/internal/geom"
)

// Cursor is the bidirectional cursor the walks run over. Encoding, every
// primitive appends its field to Buf and nothing can fail. Decoding, every
// primitive reads its field at off, checks it, records the first error
// (wrapping bad, the caller's sentinel) in Err and from then on no-ops
// leaving zero values behind, so a walk is straight-line code that never
// panics, never indexes past its input and never allocates for a count the
// input cannot back. Validity rules are decode-only. Dim is the dimension
// of every point the walk meets.
type Cursor struct {
	Buf []byte
	Dec bool
	Dim int
	Err error
	off int
	bad error
}

// Encoder returns a cursor that appends to buf.
func Encoder(buf []byte, dim int) Cursor { return Cursor{Buf: buf, Dim: dim} }

// Decoder returns a cursor that reads buf; its errors wrap bad.
func Decoder(buf []byte, dim int, bad error) Cursor {
	return Cursor{Buf: buf, Dec: true, Dim: dim, bad: bad}
}

// Fail records the first decode error.
func (c *Cursor) Fail(format string, args ...any) {
	if c.Err == nil {
		c.Err = fmt.Errorf("%w: %s", c.bad, fmt.Sprintf(format, args...))
	}
}

// End closes a decode: the first error, or unread bytes after the walk.
func (c *Cursor) End() error {
	if c.Left() != 0 {
		c.Fail("%d trailing bytes", c.Left())
	}
	return c.Err
}

// Take consumes the next n input bytes (decode only); nil after any error.
func (c *Cursor) Take(n int) []byte {
	if c.Err == nil && c.Left() < n {
		c.Fail("truncated (want %d more bytes, have %d)", n, c.Left())
	}
	if c.Err != nil {
		return nil
	}
	c.off += n
	return c.Buf[c.off-n : c.off]
}

// Left is the unread input length (decode only).
func (c *Cursor) Left() int { return len(c.Buf) - c.off }

// Pos is the walk's position in Buf; see Sum.
func (c *Cursor) Pos() int {
	if c.Dec {
		return c.off
	}
	return len(c.Buf)
}

// The fixed-width primitives. Encoding only ever reads the walked value — a
// router fans one request's slices out to several replicas at once. The
// encode half appends to Buf in place (not through
// binary.LittleEndian.AppendUintN, which returns a fresh slice header): an
// in-place append that does not grow stores only the new length, so the hot
// path writes no pointer and pays no GC write barrier.

func (c *Cursor) U8(v *uint8) {
	if c.Dec {
		*v = uint8(c.get(1))
	} else {
		c.Buf = append(c.Buf, *v)
	}
}

func (c *Cursor) U16(v *uint16) {
	if c.Dec {
		*v = uint16(c.get(2))
	} else {
		c.Buf = append(c.Buf, byte(*v), byte(*v>>8))
	}
}

func (c *Cursor) U32(v *uint32) {
	if c.Dec {
		*v = uint32(c.get(4))
	} else {
		c.put32(*v)
	}
}

func (c *Cursor) U64(v *uint64) {
	if c.Dec {
		*v = c.get(8)
	} else {
		c.put64(*v)
	}
}

func (c *Cursor) put32(v uint32) {
	c.Buf = append(c.Buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func (c *Cursor) put64(v uint64) {
	c.Buf = append(c.Buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24), byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

// get reads an n-byte little-endian unsigned integer; 0 after any error.
func (c *Cursor) get(n int) uint64 {
	switch b := c.Take(n); len(b) {
	case 1:
		return uint64(b[0])
	case 2:
		return uint64(binary.LittleEndian.Uint16(b))
	case 4:
		return uint64(binary.LittleEndian.Uint32(b))
	case 8:
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

func (c *Cursor) I32(v *int32) {
	if c.Dec {
		*v = int32(c.get(4))
	} else {
		c.put32(uint32(*v))
	}
}

func (c *Cursor) I64(v *int64) {
	if c.Dec {
		*v = int64(c.get(8))
	} else {
		c.put64(uint64(*v))
	}
}

// Int is a non-negative int field that travels as a uint32.
func (c *Cursor) Int(v *int) {
	if c.Dec {
		*v = int(c.get(4))
	} else {
		c.put32(uint32(*v))
	}
}

// Int32 and Int64 are int fields that travel as signed integers of that
// width.
func (c *Cursor) Int32(v *int) { x := int32(*v); c.I32(&x); store(c, v, int(x)) }
func (c *Cursor) Int64(v *int) { x := int64(*v); c.I64(&x); store(c, v, int(x)) }

// store writes a decoded value back: encoding never stores to the walked
// value, which other goroutines may be encoding too.
func store[T any](c *Cursor, v *T, x T) {
	if c.Dec {
		*v = x
	}
}

func (c *Cursor) F64(v *float64) {
	if c.Dec {
		*v = math.Float64frombits(c.get(8))
	} else {
		c.put64(math.Float64bits(*v))
	}
}

// Flag is a bool as one byte; any value but 0 or 1 is malformed.
func (c *Cursor) Flag(v *bool) {
	if c.Dec {
		b := c.get(1)
		if b > 1 {
			c.Fail("flag byte %d", b)
		}
		*v = b == 1
	} else if *v {
		c.Buf = append(c.Buf, 1)
	} else {
		c.Buf = append(c.Buf, 0)
	}
}

// Nonneg is an int64 count or bound that must not decode negative.
func (c *Cursor) Nonneg(v *int64, what string) {
	c.I64(v)
	if c.Dec && *v < 0 {
		c.Fail("negative %s", what)
	}
}

// Magic is a fixed tag: encoding appends it, decoding fails unless the
// input holds exactly it.
func (c *Cursor) Magic(magic string) {
	s := magic
	if c.Str(&s, len(magic)); s != magic && c.Err == nil {
		c.Fail("tag %q, want %q", s, magic)
	}
}

// Sum is a CRC32 (IEEE) of the walk's bytes from position from to here:
// encoding appends it, decoding fails on a mismatch.
func (c *Cursor) Sum(from int) {
	got := crc32.ChecksumIEEE(c.Buf[from:c.Pos()])
	want := got
	c.U32(&want)
	if c.Dec && c.Err == nil && got != want {
		c.Fail("CRC %08x, want %08x", got, want)
	}
}

// Count walks a uint32 element count for Fits or Take to check.
func (c *Cursor) Count(n int) int { u := uint32(n); c.U32(&u); return int(u) }

// Fits checks n elements of at least elemSize bytes each before the caller
// allocates them: decoding, they must fit in the remaining input (compared
// by division, so no count overflows the check) or n walks as 0; encoding,
// it reserves their room in one step.
func (c *Cursor) Fits(n, elemSize int) int {
	if !c.Dec {
		c.Buf = slices.Grow(c.Buf, n*elemSize)
		return n
	}
	if c.Err == nil && (n < 0 || n > c.Left()/elemSize) {
		c.Fail("count %d × %d bytes exceeds remaining %d", n, elemSize, c.Left())
	}
	if c.Err != nil {
		return 0
	}
	return n
}

// Seq walks a list's uint32 count and, decoding, allocates the list; the
// caller ranges over the result to walk each element in place.
func Seq[T any](c *Cursor, s *[]T, elemSize int) []T {
	return List(c, s, c.Count(len(*s)), elemSize)
}

// List is Seq for a list whose length n travels elsewhere.
func List[T any](c *Cursor, s *[]T, n, elemSize int) []T {
	if n = c.Fits(n, elemSize); c.Dec {
		*s = make([]T, n)
	}
	return *s
}

// Str is n raw bytes of text; the length travels separately.
func (c *Cursor) Str(s *string, n int) {
	if !c.Dec {
		c.Buf = append(c.Buf, *s...)
	} else {
		*s = string(c.Take(n))
	}
}

// Point is Dim float64 coordinates.
func (c *Cursor) Point(p *geom.Point) {
	if !c.Dec {
		for _, v := range *p {
			c.put64(math.Float64bits(v))
		}
	} else if b := c.Take(8 * c.Dim); b != nil {
		q := make(geom.Point, c.Dim)
		for i := range q {
			q[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
		}
		*p = q
	}
}

// Box is a lo point then a hi point with lo <= hi on every axis (±Inf
// faces are legal: a partition's outer cells have them).
func (c *Cursor) Box(b *geom.Box) {
	c.Point(&b.Lo)
	c.Point(&b.Hi)
	if c.Dec && c.Err == nil {
		for ax := range b.Lo {
			if !(b.Lo[ax] <= b.Hi[ax]) {
				c.Fail("inverted or NaN box on axis %d", ax)
				return
			}
		}
	}
}

func (c *Cursor) Points(s *[]geom.Point) {
	for i := range Seq(c, s, 8*c.Dim) {
		c.Point(&(*s)[i])
	}
}

func (c *Cursor) Boxes(s *[]geom.Box) {
	for i := range Seq(c, s, 16*c.Dim) {
		c.Box(&(*s)[i])
	}
}

// ItemSize is the encoded size of one item in dimension dim.
func ItemSize(dim int) int { return 4 + 8 + 8*dim }

// Item is the hottest walk of the wire, the WAL and the snapshot, so it
// moves a whole item at once: one append encoding, one Take decoding, and
// the fields indexed in place.
func (c *Cursor) Item(it *core.Item) {
	if !c.Dec {
		n, size := len(c.Buf), 12+8*len(it.P)
		if cap(c.Buf)-n < size {
			c.Buf = slices.Grow(c.Buf, size)
		}
		c.Buf = c.Buf[:n+size]
		b := c.Buf[n:]
		binary.LittleEndian.PutUint32(b, uint32(it.ID))
		binary.LittleEndian.PutUint64(b[4:], math.Float64bits(it.Priority))
		for i, v := range it.P {
			binary.LittleEndian.PutUint64(b[12+8*i:], math.Float64bits(v))
		}
		return
	}
	b := c.Take(ItemSize(c.Dim))
	if b == nil {
		return
	}
	it.ID = int32(binary.LittleEndian.Uint32(b))
	it.Priority = math.Float64frombits(binary.LittleEndian.Uint64(b[4:]))
	p := make(geom.Point, c.Dim)
	for i := range p {
		p[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[12+8*i:]))
	}
	it.P = p
}

// Items is a uint32-counted item list.
func (c *Cursor) Items(s *[]core.Item) {
	for i := range Seq(c, s, ItemSize(c.Dim)) {
		c.Item(&(*s)[i])
	}
}

// TimedItems is a counted list of (item, expireAt int64) records held as
// parallel slices.
func (c *Cursor) TimedItems(items *[]core.Item, ats *[]int64) {
	n := len(Seq(c, items, ItemSize(c.Dim)+8))
	if c.Dec {
		*ats = make([]int64, n)
	}
	for i := range *items {
		c.Item(&(*items)[i])
		c.I64(&(*ats)[i])
	}
}

// FrameHeader is the length uint32 + CRC32 (IEEE, of the payload) that
// precede a frame's payload.
const FrameHeader = 8

// Frame returns an encoder whose buffer (of at least capacity bytes) holds
// a frame header and n reserved bytes; Seal fills the header in.
func Frame(dim, n, capacity int) Cursor {
	return Encoder(make([]byte, FrameHeader+n, max(capacity, FrameHeader+n)), dim)
}

// Seal writes the length + CRC header of a frame built from Frame.
func Seal(frame []byte) []byte {
	payload := frame[FrameHeader:]
	binary.LittleEndian.PutUint32(frame, uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.ChecksumIEEE(payload))
	return frame
}

// CutFrame is the one frame parser: the CRC-checked payload of the frame
// at the front of data. A length above limit or a CRC mismatch wraps bad;
// data that ends inside the frame is io.ErrUnexpectedEOF.
func CutFrame(data []byte, limit int, bad error) ([]byte, error) {
	if len(data) < FrameHeader {
		return nil, io.ErrUnexpectedEOF
	}
	n := int(binary.LittleEndian.Uint32(data))
	switch {
	case n > limit:
		return nil, fmt.Errorf("%w: frame payload %d bytes exceeds cap %d", bad, n, limit)
	case n > len(data)-FrameHeader:
		return nil, io.ErrUnexpectedEOF
	}
	payload := data[FrameHeader : FrameHeader+n]
	if got, want := crc32.ChecksumIEEE(payload), binary.LittleEndian.Uint32(data[4:]); got != want {
		return nil, fmt.Errorf("%w: frame CRC %08x, want %08x", bad, got, want)
	}
	return payload, nil
}

// ReadFrame reads one frame from r and parses it with CutFrame; a short
// read returns r's error.
func ReadFrame(r io.Reader, limit int, bad error) ([]byte, error) {
	var hdr [FrameHeader]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	// The header alone parses unless its payload is still to be read.
	if payload, err := CutFrame(hdr[:], limit, bad); err != io.ErrUnexpectedEOF {
		return payload, err
	}
	frame := make([]byte, FrameHeader+int(binary.LittleEndian.Uint32(hdr[:])))
	copy(frame, hdr[:])
	if _, err := io.ReadFull(r, frame[FrameHeader:]); err != nil {
		return nil, err
	}
	return CutFrame(frame, limit, bad)
}
