package stateflow

import (
	"testing"

	"statefulentities.dev/stateflow/internal/compiler"
	"statefulentities.dev/stateflow/internal/interp"
	"statefulentities.dev/stateflow/internal/systems/sysapi"
)

// The write-set and the manifest ride __apply__ records in the source
// log, and recovery parses them back from it: outside input, so no byte
// string may panic a decoder or make it allocate past the string's length.
var (
	// A value announcing a 2^63-1 element list.
	listBomb = string([]byte{byte(interp.KList), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f})
	// A count of 2^32-1: entries, or the attributes of one image.
	countBomb = string([]byte{0xff, 0xff, 0xff, 0xff, 0x0f})
)

// FuzzDecodeWriteSet: arbitrary bytes never panic, and a write-set that
// decodes re-encodes to a fixed point — rows of program classes and
// layout-less rows of unknown ones alike.
func FuzzDecodeWriteSet(f *testing.F) {
	prog, err := compiler.Compile(bank)
	if err != nil {
		f.Fatalf("compile: %v", err)
	}
	layouts := prog.Layouts()
	row := func(class string, st interp.MapState) *interp.Row {
		return interp.RowFromMap(layouts.LayoutOf(class), st)
	}
	f.Add(encodeWriteSet([]writeSetEntry{
		{Ref: interp.EntityRef{Class: "Account", Key: "a1"}, St: row("Account", interp.MapState{"balance": interp.IntV(70)})},
		{Ref: interp.EntityRef{Class: "Ghost", Key: "g"}, St: row("Ghost", interp.MapState{"x": interp.ListV(interp.StrV("y"))})},
	}))
	f.Add(encodeWriteSet(nil))
	f.Add(countBomb)
	f.Add("\x01\x07Account\x02a1" + countBomb)
	f.Add("\x01\x07Account\x02a1\x01\x07balance" + listBomb)

	f.Fuzz(func(t *testing.T, s string) {
		entries, err := decodeWriteSet(s, layouts)
		if err != nil {
			return
		}
		once := encodeWriteSet(entries)
		again, err := decodeWriteSet(once, layouts)
		if err != nil {
			t.Fatalf("re-decode of %x: %v", once, err)
		}
		if twice := encodeWriteSet(again); once != twice {
			t.Fatalf("write-set encoding not a fixed point:\n%x\n%x", once, twice)
		}
	})
}

// FuzzDecodeManifest: arbitrary bytes never panic, and a manifest that
// decodes re-encodes to a fixed point.
func FuzzDecodeManifest(f *testing.F) {
	f.Add(encodeManifest(&batchManifest{
		seq:       3,
		footprint: []int{0, 2},
		txns: []manifestTxn{{
			req: "c.1", replyTo: "client", home: 2,
			res: sysapi.Response{Req: "c.1", Value: interp.BoolV(true), Retries: 1},
		}},
		applies: []manifestApply{{
			shard: 0, target: interp.EntityRef{Class: "Account", Key: "a1"}, writes: encodeWriteSet(nil),
		}},
	}))
	f.Add(encodeManifest(&batchManifest{}))
	// seq 1, no footprint, one transaction whose response value is the bomb.
	f.Add("\x02\x00\x01\x03c.1\x06client\x00" + listBomb)
	f.Add("\x02" + countBomb)

	f.Fuzz(func(t *testing.T, s string) {
		m, err := decodeManifest(s)
		if err != nil {
			return
		}
		once := encodeManifest(m)
		again, err := decodeManifest(once)
		if err != nil {
			t.Fatalf("re-decode of %x: %v", once, err)
		}
		if twice := encodeManifest(again); once != twice {
			t.Fatalf("manifest encoding not a fixed point:\n%x\n%x", once, twice)
		}
	})
}
