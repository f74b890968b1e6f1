package interp

import (
	"bytes"
	"testing"
)

// Decoder input is read back from storage (the Live journal, snapshot
// images, dlog checkpoints), so it is outside input whatever the writer
// promised: no byte string may panic or allocate past its own length.
var hostileEncodings = [][]byte{
	// A list announcing 2^63-1 elements: makeslice out of range.
	{byte(KList), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f},
	// A string whose 10-byte length overflows the offset arithmetic.
	{byte(KStr), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},
	// An environment announcing 2^32-1 entries: the map pre-size alone
	// exhausts memory.
	{0xff, 0xff, 0xff, 0xff, 0x0f},
}

// FuzzDecodeValue: arbitrary bytes never panic the value and environment
// decoders, and whatever decodes re-encodes to a fixed point (one round
// canonicalises varints, bool bytes and dict order; a second changes
// nothing).
func FuzzDecodeValue(f *testing.F) {
	for _, b := range hostileEncodings {
		f.Add(b)
	}
	d := DictV()
	_ = d.DictSet(StrV("k"), ListV(IntV(-3), FloatV(1.5), BoolV(true), None))
	f.Add(EncodeValue(d))
	f.Add(EncodeValue(RefV("Account", "a1")))
	e := NewEncoder()
	e.State(MapState{"balance": IntV(7), "owner": StrV("x"), "tags": ListV(StrV("a"))})
	f.Add(e.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		if v, err := DecodeValue(data); err == nil {
			once := EncodeValue(v)
			v2, err := DecodeValue(once)
			if err != nil {
				t.Fatalf("re-decode of %x: %v", once, err)
			}
			if twice := EncodeValue(v2); !bytes.Equal(once, twice) {
				t.Fatalf("value encoding not a fixed point:\n%x\n%x", once, twice)
			}
		}
		if st, err := NewDecoder(data).State(); err == nil {
			enc := func(st MapState) []byte {
				e := NewEncoder()
				e.State(st)
				return e.Bytes()
			}
			once := enc(st)
			st2, err := NewDecoder(once).State()
			if err != nil {
				t.Fatalf("re-decode of %x: %v", once, err)
			}
			if twice := enc(st2); !bytes.Equal(once, twice) {
				t.Fatalf("state encoding not a fixed point:\n%x\n%x", once, twice)
			}
		}
	})
}
