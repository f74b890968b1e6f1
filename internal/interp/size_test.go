package interp

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"statefulentities.dev/stateflow/internal/ir"
)

// The cost models price state by Row.EncodedSize, which walks the row
// instead of encoding it; these tests hold the walk to the codec.

// boundaryValue draws a value of every kind, nested up to depth, with the
// integers that exercise every varint length on both signs.
func boundaryValue(rng *rand.Rand, depth int) Value {
	ints := []int64{0, -1, 1, 63, -64, 64, -65, 1 << 20, -(1 << 41), math.MaxInt64, math.MinInt64}
	kinds := 6
	if depth > 0 {
		kinds = 8
	}
	switch rng.Intn(kinds) {
	case 0:
		return None
	case 1:
		return IntV(ints[rng.Intn(len(ints))] + int64(rng.Intn(3)) - 1)
	case 2:
		return FloatV(rng.NormFloat64())
	case 3:
		return StrV(string(make([]byte, []int{0, 1, 127, 128, 20_000}[rng.Intn(5)])))
	case 4:
		return BoolV(rng.Intn(2) == 0)
	case 5:
		return RefV("Account", fmt.Sprint("k", rng.Intn(1000)))
	case 6:
		elems := make([]Value, rng.Intn(4))
		for i := range elems {
			elems[i] = boundaryValue(rng, depth-1)
		}
		return ListV(elems...)
	default:
		d := DictV()
		for i := rng.Intn(4); i > 0; i-- {
			key := []Value{IntV(int64(rng.Intn(300) - 150)), StrV(fmt.Sprint("k", rng.Intn(9))), BoolV(true), FloatV(0.5)}[rng.Intn(4)]
			_ = d.DictSet(key, boundaryValue(rng, depth-1))
		}
		return d
	}
}

func requireSizeMatches(t *testing.T, r *Row, what string) {
	t.Helper()
	enc := r.Encoding()
	if got, want := r.EncodedSize(), len(enc); got != want {
		t.Fatalf("%s: EncodedSize() = %d, len(Encoding()) = %d (attrs %v)", what, got, want, r.CloneMap())
	}
	// The encoding is built in a buffer of exactly EncodedSize bytes.
	if cap(enc) != len(enc) {
		t.Fatalf("%s: encoding of %d bytes sits in a buffer of %d", what, len(enc), cap(enc))
	}
}

func TestRowEncodedSizeMatchesEncoding(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 2000; iter++ {
		// 0–3, 63–65 and 100 slots: the bitmap row, its boundary and the
		// wide row with the presence spill.
		width := []int{0, 1, 3, 63, 64, 65, 100}[rng.Intn(7)]
		attrs := make([]string, width)
		for i := range attrs {
			attrs[i] = fmt.Sprintf("a%03d", (i*37)%width) // declaration order ≠ sorted order
		}
		r := NewRow(ir.NewClassLayout("C", 0, attrs))
		requireSizeMatches(t, r, "empty row")
		for _, a := range attrs {
			if rng.Intn(3) > 0 { // leave slots absent
				r.Set(a, boundaryValue(rng, 2))
			}
		}
		requireSizeMatches(t, r, "slots only")
		requireSizeMatches(t, r, "cached encoding")
		if width > 0 {
			// Hand a container out (the row stops caching), mutate it
			// behind the row's back, and price again.
			r.Set(attrs[0], ListV(IntV(1)))
			slot, _ := r.Layout().SlotOf(attrs[0])
			v, _ := r.GetSlot(slot)
			requireSizeMatches(t, r, "aliased")
			v.L.Elems = append(v.L.Elems, boundaryValue(rng, 1))
			requireSizeMatches(t, r, "aliased, mutated through the alias")
		}
		requireSizeMatches(t, r.Clone(), "clone")
		if got, want := EncodedSize(r.CloneMap()), len(r.Encoding()); got != want {
			t.Fatalf("EncodedSize(MapState) = %d, encoding is %d bytes", got, want)
		}
	}
}

// FuzzRowEncodedSize: any state the decoder accepts, decoded as a row over
// a layout that declares every attribute it names, must price at exactly
// its encoded length — as must every value on its own. Over a layout that
// lacks one of those attributes, the row must not decode.
func FuzzRowEncodedSize(f *testing.F) {
	for _, b := range hostileEncodings {
		f.Add(b)
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 8; i++ {
		e := NewEncoder()
		e.State(MapState{"a": boundaryValue(rng, 3), "b": boundaryValue(rng, 3), "c": boundaryValue(rng, 2)})
		f.Add(e.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if v, err := DecodeValue(data); err == nil {
			if got, want := ValueSize(v), len(EncodeValue(v)); got != want {
				t.Fatalf("ValueSize = %d, encoding is %d bytes", got, want)
			}
		}
		st, err := NewDecoder(data).State()
		if err != nil {
			return
		}
		// Declaration order opposite to the sorted order the codec emits.
		names := make([]string, 0, len(st))
		for k := range st {
			names = append(names, k)
		}
		sort.Sort(sort.Reverse(sort.StringSlice(names)))
		r, err := NewDecoder(data).Row(ir.NewClassLayout("C", 0, names))
		if err != nil {
			// A state map keeps the last of two same-named attributes; a
			// row rejects the pair.
			if !strings.Contains(err.Error(), "appears twice") {
				t.Fatalf("a row over every attribute it names did not decode: %v", err)
			}
			return
		}
		requireSizeMatches(t, r, "decoded row")
		for i := range r.slots {
			r.GetSlot(i) // alias every container
		}
		requireSizeMatches(t, r, "decoded row, aliased")
		if len(names) > 0 {
			if _, err := NewDecoder(data).Row(ir.NewClassLayout("C", 0, names[1:])); err == nil {
				t.Fatalf("a row naming %s decoded over a layout without it", names[0])
			}
		}
	})
}
