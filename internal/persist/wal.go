package persist

import (
	"fmt"
	"io"
	"os"

	"pimkd/internal/codec"
	"pimkd/internal/core"
)

// WAL segment format, little-endian, each layout a walk over package codec:
//
//	header (24 bytes):
//	    magic    "PKDWAL01"  (8 bytes)
//	    dim      uint32
//	    startLSN uint64      (LSN of the first record in this segment)
//	    crc32    uint32      (IEEE, of the 12 bytes dim+startLSN)
//	frames, back to back (codec.Frame, the shard wire's frame too):
//	    length   uint32      (payload bytes)
//	    crc32    uint32      (IEEE, of payload)
//	    payload: one or more records with consecutive LSNs, each
//	        lsn    uint64
//	        op     uint8     (OpInsert | OpDelete)
//	        count  uint32
//	        count × item     (id int32, priority float64, dim × float64)
//
// A frame is one append, so a crash keeps all of its records or none. A
// frame that fails to parse — short header, short payload, CRC mismatch — at
// the *tail* of the newest segment is a torn append from a crash and is
// truncated away; anywhere else it is corruption (ErrCorrupt), as is a frame
// whose CRC holds but whose records do not parse. LSNs are strictly
// sequential across records, frames and segments with no gaps.
const (
	walMagic      = "PKDWAL01"
	walHeaderSize = 24
	// maxWALRecordLen bounds one frame's payload so a corrupted length
	// field cannot drive a huge allocation (2^28 B ≈ 16M 2-d items).
	maxWALRecordLen = 1 << 28
)

// WALRecord is one decoded write-ahead-log record: an acknowledged update
// batch with its log sequence number.
type WALRecord struct {
	LSN   uint64
	Op    Op
	Items []core.Item
}

func (r *WALRecord) walk(c *codec.Cursor) {
	c.U64(&r.LSN)
	c.U8((*uint8)(&r.Op))
	if c.Dec && c.Err == nil && r.Op != OpInsert && r.Op != OpDelete {
		c.Fail("WAL record lsn=%d has unknown op %d", r.LSN, r.Op)
	}
	c.Items(&r.Items)
}

// EncodeWALRecord frames one record (length + CRC + payload) for appending
// to a segment whose header declares dimension dim.
func EncodeWALRecord(rec WALRecord, dim int) []byte { return encodeWALFrame(dim, rec) }

// encodeWALFrame frames recs (consecutive LSNs) as one frame.
func encodeWALFrame(dim int, recs ...WALRecord) []byte {
	size := codec.FrameHeader
	for _, r := range recs {
		size += 13 + len(r.Items)*codec.ItemSize(dim)
	}
	c := codec.Frame(dim, 0, size)
	for i := range recs {
		recs[i].walk(&c)
	}
	return codec.Seal(c.Buf)
}

func walHeader(c *codec.Cursor, dim *int, startLSN *uint64) {
	c.Magic(walMagic)
	from := c.Pos()
	c.Int32(dim)
	c.U64(startLSN)
	c.Sum(from)
	if c.Dec && c.Err == nil && (*dim < 1 || *dim > 1<<16) {
		c.Fail("impossible WAL dimension %d", *dim)
	}
}

func encodeWALHeader(dim int, startLSN uint64) []byte {
	c := codec.Encoder(make([]byte, 0, walHeaderSize), dim)
	walHeader(&c, &dim, &startLSN)
	return c.Buf
}

// WALScan is the result of scanning one segment's bytes.
type WALScan struct {
	Dim      int
	StartLSN uint64
	Records  []WALRecord
	// ValidLen is the byte offset of the first torn frame (== len(data)
	// when the segment parses cleanly); truncating the file to ValidLen
	// removes the torn tail.
	ValidLen int64
	// Torn reports whether a torn frame terminated the scan.
	Torn bool
}

// ScanWALSegment parses a segment image. Frame-level damage (short or
// CRC-failing frame) terminates the scan as a torn tail — recorded, not an
// error, because the caller decides whether a tail is legal here. Damage
// *behind* a valid frame CRC (bad op, count/length mismatch, LSN gap) is
// ErrCorrupt. ScanWALSegment never panics on arbitrary input.
func ScanWALSegment(data []byte) (WALScan, error) {
	var s WALScan
	hdr := codec.Decoder(data, 0, ErrCorrupt)
	if walHeader(&hdr, &s.Dim, &s.StartLSN); hdr.Err != nil {
		return WALScan{}, hdr.Err
	}
	s.ValidLen = walHeaderSize
	next := s.StartLSN
	for off := walHeaderSize; off < len(data); {
		payload, err := codec.CutFrame(data[off:], maxWALRecordLen, ErrCorrupt)
		if err != nil {
			s.Torn = true
			return s, nil
		}
		c := codec.Decoder(payload, s.Dim, ErrCorrupt)
		for more := true; more; more = c.Left() > 0 { // one or more records
			var rec WALRecord
			rec.walk(&c)
			if c.Err != nil {
				return s, c.Err
			}
			if rec.LSN != next {
				return s, fmt.Errorf("%w: WAL record lsn=%d, want %d (gap or reorder)", ErrCorrupt, rec.LSN, next)
			}
			next++
			s.Records = append(s.Records, rec)
		}
		off += codec.FrameHeader + len(payload)
		s.ValidLen = int64(off)
	}
	return s, nil
}

// walSegment is an open, append-position WAL segment file.
type walSegment struct {
	f        *os.File
	path     string
	startLSN uint64
	size     int64
}

// createWALSegment creates a fresh segment with its header written (and
// synced when fsync is set).
func createWALSegment(path string, dim int, startLSN uint64, fsync bool) (*walSegment, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	hdr := encodeWALHeader(dim, startLSN)
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return nil, err
	}
	if fsync {
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, err
		}
	}
	return &walSegment{f: f, path: path, startLSN: startLSN, size: int64(len(hdr))}, nil
}

// openWALSegmentForAppend reopens an existing segment, truncates it to
// validLen (dropping any torn tail), and positions writes at the end.
func openWALSegmentForAppend(path string, startLSN uint64, validLen int64) (*walSegment, error) {
	f, err := os.OpenFile(path, os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	if err := f.Truncate(validLen); err != nil {
		f.Close()
		return nil, err
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, err
	}
	return &walSegment{f: f, path: path, startLSN: startLSN, size: validLen}, nil
}

func (s *walSegment) append(frame []byte, fsync bool) error {
	if _, err := s.f.Write(frame); err != nil {
		return err
	}
	if fsync {
		if err := s.f.Sync(); err != nil {
			return err
		}
	}
	s.size += int64(len(frame))
	return nil
}

func (s *walSegment) close() error {
	if s.f == nil {
		return nil
	}
	err := s.f.Close()
	s.f = nil
	return err
}
