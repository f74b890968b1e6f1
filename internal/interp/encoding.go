// Binary encoding of values, environments and entity state. The paper
// requires entity state to be serializable (§2.2); runtimes use this codec
// for snapshot persistence (§3), for shipping execution contexts inside
// events, and for the state-size cost accounting of the system-overhead
// experiment (§4).
package interp

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
)

// Encoder appends values to a byte buffer.
type Encoder struct {
	buf []byte
}

// NewEncoder returns an empty encoder.
func NewEncoder() *Encoder { return &Encoder{} }

// NewEncoderSize returns an empty encoder whose buffer already holds n
// bytes of capacity: a caller that knows its output size (ValueSize,
// Row.EncodedSize) pays one allocation instead of append's doubling.
func NewEncoderSize(n int) *Encoder { return &Encoder{buf: make([]byte, 0, n)} }

// NewEncoderInto returns an empty encoder that appends into buf's storage,
// overwriting its contents: a caller recycling a buffer it no longer reads
// pays no allocation while the output fits.
func NewEncoderInto(buf []byte) *Encoder { return &Encoder{buf: buf[:0]} }

// Reset empties the encoder, keeping its buffer for reuse. Slices
// returned by Bytes before the reset are overwritten by later appends.
func (e *Encoder) Reset() { e.buf = e.buf[:0] }

// Bytes returns the encoded buffer.
func (e *Encoder) Bytes() []byte { return e.buf }

// Append splices pre-encoded bytes (e.g. a row's cached encoding) into
// the buffer.
func (e *Encoder) Append(b []byte) { e.buf = append(e.buf, b...) }

func (e *Encoder) byte(b byte)      { e.buf = append(e.buf, b) }
func (e *Encoder) uvarint(u uint64) { e.buf = binary.AppendUvarint(e.buf, u) }
func (e *Encoder) varint(i int64)   { e.buf = binary.AppendVarint(e.buf, i) }

func (e *Encoder) str(s string) {
	e.uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// Uvarint appends an unsigned varint (exported for subsystems framing
// their own records around values, e.g. the durable-log codecs).
func (e *Encoder) Uvarint(u uint64) { e.uvarint(u) }

// Varint appends a signed varint.
func (e *Encoder) Varint(i int64) { e.varint(i) }

// Str appends a length-prefixed string.
func (e *Encoder) Str(s string) { e.str(s) }

// Value appends one value.
func (e *Encoder) Value(v Value) {
	e.byte(byte(v.Kind))
	switch v.Kind {
	case KNone:
	case KInt:
		e.varint(v.I)
	case KFloat:
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(v.I))
		e.buf = append(e.buf, b[:]...)
	case KStr:
		e.str(v.Str())
	case KBool:
		if v.B {
			e.byte(1)
		} else {
			e.byte(0)
		}
	case KList:
		e.uvarint(uint64(len(v.L.Elems)))
		for _, el := range v.L.Elems {
			e.Value(el)
		}
	case KDict:
		keys := v.sortedKeys()
		e.uvarint(uint64(len(keys)))
		for _, k := range keys {
			pair := v.L.dict[k]
			e.Value(pair.k)
			e.Value(pair.v)
		}
	case KRef:
		e.str(v.R.Class)
		e.str(v.R.Key)
	}
}

// sameEncoding reports whether Encoder.Value appends the same bytes for a
// and b, without appending them. The encoding is prefix-free and starts with
// the kind, so two values encode alike exactly when their kinds match and so
// do their parts: a scalar's bits, a list's elements in order, and a dict's
// pairs under each key — a dict encodes its pairs sorted by key, and values
// that encode alike key alike.
func sameEncoding(a, b Value) bool {
	if a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case KInt, KFloat:
		return a.I == b.I
	case KStr:
		return a.Str() == b.Str()
	case KBool:
		return a.B == b.B
	case KRef:
		return a.R == b.R
	case KList:
		if a.L == b.L {
			return true
		}
		return slices.EqualFunc(a.L.Elems, b.L.Elems, sameEncoding)
	case KDict:
		if a.L == b.L {
			return true
		}
		if len(a.L.dict) != len(b.L.dict) {
			return false
		}
		for k, pa := range a.L.dict {
			pb, ok := b.L.dict[k]
			if !ok || !sameEncoding(pa.k, pb.k) || !sameEncoding(pa.v, pb.v) {
				return false
			}
		}
	}
	return true
}

// The size functions mirror the appenders above byte for byte: they are
// what lets the cost models price state by its encoded size without
// encoding it (Row.EncodedSize).

func uvarintSize(u uint64) int { return (bits.Len64(u|1) + 6) / 7 }

// varintSize is the size of binary.AppendVarint's zig-zag encoding.
func varintSize(i int64) int { return uvarintSize(uint64(i<<1) ^ uint64(i>>63)) }

func strSize(s string) int { return uvarintSize(uint64(len(s))) + len(s) }

// ValueSize returns the number of bytes Encoder.Value appends for v.
func ValueSize(v Value) int {
	n := 1 // kind byte
	switch v.Kind {
	case KInt:
		n += varintSize(v.I)
	case KFloat:
		n += 8
	case KStr:
		n += strSize(v.Str())
	case KBool:
		n++
	case KList:
		n += uvarintSize(uint64(len(v.L.Elems)))
		for _, el := range v.L.Elems {
			n += ValueSize(el)
		}
	case KDict:
		n += uvarintSize(uint64(len(v.L.dict)))
		for _, pair := range v.L.dict {
			n += ValueSize(pair.k) + ValueSize(pair.v)
		}
	case KRef:
		n += strSize(v.R.Class) + strSize(v.R.Key)
	}
	return n
}

// State appends a MapState with deterministic key order.
func (e *Encoder) State(st MapState) {
	keys := make([]string, 0, len(st))
	for k := range st {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	e.uvarint(uint64(len(keys)))
	for _, k := range keys {
		e.str(k)
		e.Value(st[k])
	}
}

// Decoder reads values from a byte buffer.
type Decoder struct {
	buf []byte
	off int
}

// NewDecoder wraps a buffer.
func NewDecoder(buf []byte) *Decoder { return &Decoder{buf: buf} }

// Remaining reports unread bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

func (d *Decoder) bytev() (byte, error) {
	if d.off >= len(d.buf) {
		return 0, fmt.Errorf("decode: unexpected end of buffer")
	}
	b := d.buf[d.off]
	d.off++
	return b, nil
}

func (d *Decoder) uvarint() (uint64, error) {
	u, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		return 0, fmt.Errorf("decode: bad uvarint")
	}
	d.off += n
	return u, nil
}

func (d *Decoder) varint() (int64, error) {
	i, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		return 0, fmt.Errorf("decode: bad varint")
	}
	d.off += n
	return i, nil
}

// count reads a length or element count and rejects one the unread bytes
// cannot hold (every element encodes to at least one byte). The buffer is
// outside input — journal records, snapshot images and log checkpoints
// read back from storage — so nothing may be allocated from a count before
// this check.
func (d *Decoder) count() (int, error) {
	n, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if n > uint64(d.Remaining()) {
		return 0, fmt.Errorf("decode: count %d overruns %d remaining bytes", n, d.Remaining())
	}
	return int(n), nil
}

func (d *Decoder) str() (string, error) {
	n, err := d.count()
	if err != nil {
		return "", err
	}
	s := string(d.buf[d.off : d.off+n])
	d.off += n
	return s, nil
}

// Uvarint reads an unsigned varint (exported counterpart of
// Encoder.Uvarint).
func (d *Decoder) Uvarint() (uint64, error) { return d.uvarint() }

// Varint reads a signed varint.
func (d *Decoder) Varint() (int64, error) { return d.varint() }

// Count reads an element count written by Encoder.Uvarint, bounded by the
// unread bytes; record codecs call it before sizing anything by the count.
func (d *Decoder) Count() (int, error) { return d.count() }

// Str reads a length-prefixed string.
func (d *Decoder) Str() (string, error) { return d.str() }

// Value reads one value.
func (d *Decoder) Value() (Value, error) {
	kb, err := d.bytev()
	if err != nil {
		return None, err
	}
	switch Kind(kb) {
	case KNone:
		return None, nil
	case KInt:
		i, err := d.varint()
		if err != nil {
			return None, err
		}
		return IntV(i), nil
	case KFloat:
		if d.off+8 > len(d.buf) {
			return None, fmt.Errorf("decode: float overruns buffer")
		}
		f := math.Float64frombits(binary.LittleEndian.Uint64(d.buf[d.off:]))
		d.off += 8
		return FloatV(f), nil
	case KStr:
		s, err := d.str()
		if err != nil {
			return None, err
		}
		return StrV(s), nil
	case KBool:
		b, err := d.bytev()
		if err != nil {
			return None, err
		}
		return BoolV(b == 1), nil
	case KList:
		n, err := d.count()
		if err != nil {
			return None, err
		}
		elems := make([]Value, n)
		for i := range elems {
			elems[i], err = d.Value()
			if err != nil {
				return None, err
			}
		}
		return ListV(elems...), nil
	case KDict:
		n, err := d.count()
		if err != nil {
			return None, err
		}
		out := DictV()
		for i := 0; i < n; i++ {
			k, err := d.Value()
			if err != nil {
				return None, err
			}
			v, err := d.Value()
			if err != nil {
				return None, err
			}
			if err := out.DictSet(k, v); err != nil {
				return None, err
			}
		}
		return out, nil
	case KRef:
		class, err := d.str()
		if err != nil {
			return None, err
		}
		key, err := d.str()
		if err != nil {
			return None, err
		}
		return RefV(class, key), nil
	default:
		return None, fmt.Errorf("decode: unknown kind %d", kb)
	}
}

// State reads a MapState.
func (d *Decoder) State() (MapState, error) {
	n, err := d.count()
	if err != nil {
		return nil, err
	}
	st := make(MapState, n)
	for i := 0; i < n; i++ {
		k, err := d.str()
		if err != nil {
			return nil, err
		}
		v, err := d.Value()
		if err != nil {
			return nil, err
		}
		st[k] = v
	}
	return st, nil
}

// EncodeValue is a convenience one-shot encoder.
func EncodeValue(v Value) []byte {
	e := NewEncoder()
	e.Value(v)
	return e.Bytes()
}

// DecodeValue is a convenience one-shot decoder.
func DecodeValue(buf []byte) (Value, error) {
	d := NewDecoder(buf)
	v, err := d.Value()
	if err != nil {
		return None, err
	}
	if d.Remaining() != 0 {
		return None, fmt.Errorf("decode: %d trailing bytes", d.Remaining())
	}
	return v, nil
}

// EncodedSize returns the serialized size of a state map; the runtime cost
// models charge (de)serialization proportional to it.
func EncodedSize(st MapState) int {
	n := uvarintSize(uint64(len(st)))
	for k, v := range st {
		n += strSize(k) + ValueSize(v)
	}
	return n
}
