package codec

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

var errBad = errors.New("bad")

// TestReadFrameAgreesWithCutFrame: the reader and the byte-slice form are
// one parser. For whole frames (an empty payload among them), torn tails,
// lengths over the cap and CRC mismatches, ReadFrame over a reader of the
// bytes returns what CutFrame returns over the bytes themselves.
func TestReadFrameAgreesWithCutFrame(t *testing.T) {
	frame := func(payload string) []byte {
		c := Frame(0, 0, 0)
		c.Buf = append(c.Buf, payload...)
		return Seal(c.Buf)
	}
	whole := frame("payload")
	badCRC := append([]byte(nil), whole...)
	badCRC[len(badCRC)-1] ^= 1
	overCap := frame("more than the cap")
	cases := map[string][]byte{
		"whole":         whole,
		"empty payload": frame(""),
		"torn header":   whole[:5],
		"torn payload":  whole[:len(whole)-1],
		"bad CRC":       badCRC,
		"over cap":      overCap,
	}
	for name, data := range cases {
		cut, cutErr := CutFrame(data, 10, errBad)
		read, readErr := ReadFrame(bytes.NewReader(data), 10, errBad)
		if !bytes.Equal(cut, read) || errors.Is(cutErr, errBad) != errors.Is(readErr, errBad) || (cutErr == nil) != (readErr == nil) {
			t.Errorf("%s: CutFrame (%q, %v), ReadFrame (%q, %v)", name, cut, cutErr, read, readErr)
		}
		if errors.Is(cutErr, io.ErrUnexpectedEOF) && !errors.Is(readErr, io.ErrUnexpectedEOF) {
			t.Errorf("%s: CutFrame torn, ReadFrame %v", name, readErr)
		}
	}
	if p, err := CutFrame(whole, 10, errBad); err != nil || string(p) != "payload" {
		t.Errorf("whole frame: %q, %v", p, err)
	}
}

// TestFitsBoundsCountsByDivision: a count whose byte size overflows an int
// is refused before anything is allocated, not wrapped into a small size.
func TestFitsBoundsCountsByDivision(t *testing.T) {
	for _, n := range []int{1 << 62, 1<<63 - 1, -1, 2} {
		c := Decoder(make([]byte, 16), 1, errBad)
		var s []struct{}
		if got := len(List(&c, &s, n, ItemSize(1))); got != 0 || !errors.Is(c.Err, errBad) {
			t.Errorf("n=%d: list of %d, err %v; want 0 and errBad", n, got, c.Err)
		}
	}
}
