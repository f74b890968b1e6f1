package state

import (
	"bytes"
	"testing"

	"statefulentities.dev/stateflow/internal/compiler"
	"statefulentities.dev/stateflow/internal/core"
	"statefulentities.dev/stateflow/internal/interp"
	"statefulentities.dev/stateflow/internal/ir"
	"statefulentities.dev/stateflow/internal/workload/tpcc"
	"statefulentities.dev/stateflow/internal/workload/ycsb"
)

// workloadImage compiles a shipped program and returns its class layouts
// and the image of a store preloaded with what load enumerates.
func workloadImage(f *testing.F, src string, load func(fn func(class string, args []interp.Value) error) error) (*ir.Layouts, []byte) {
	prog, err := compiler.Compile(src)
	if err != nil {
		f.Fatal(err)
	}
	ex := core.NewExecutor(prog)
	s := NewStore(prog.Layouts())
	if err := load(func(class string, args []interp.Value) error {
		ref, row, err := ex.InitRow(class, args)
		if err == nil {
			s.Put(ref, row)
		}
		return err
	}); err != nil {
		f.Fatal(err)
	}
	return prog.Layouts(), s.Encode()
}

// FuzzDecodeStore feeds arbitrary bytes to the snapshot image decoder — what
// a recovering worker reads back from storage — under the class layouts of
// the YCSB and TPC-C programs. An input either fails to decode, or decodes
// into a store whose image decodes back to the same rows.
func FuzzDecodeStore(f *testing.F) {
	ycsbLayouts, ycsbImage := workloadImage(f, ycsb.Program(), func(fn func(string, []interp.Value) error) error {
		load := ycsb.Loader(3, 16)
		for i := 0; i < 3; i++ {
			if err := fn(load(i)); err != nil {
				return err
			}
		}
		return nil
	})
	tpccLayouts, tpccImage := workloadImage(f, tpcc.Program(),
		tpcc.Scale{Warehouses: 1, DistrictsPerWH: 1, CustomersPerDist: 2, Items: 2}.Load)
	for _, img := range [][]byte{ycsbImage, tpccImage, NewStore(nil).Encode(), ycsbImage[:len(ycsbImage)-1]} {
		f.Add(img)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, layouts := range []*ir.Layouts{ycsbLayouts, tpccLayouts} {
			s, err := DecodeStore(data, layouts)
			if err != nil {
				continue
			}
			img := s.Encode()
			back, err := DecodeStore(img, layouts)
			if err != nil {
				t.Fatalf("the image of a decoded store does not decode: %v", err)
			}
			if len(back.m) != len(s.m) || !bytes.Equal(back.Encode(), img) {
				t.Fatalf("a decoded store's image decodes to %d rows encoding to %x, not %d rows encoding to %x",
					len(back.m), back.Encode(), len(s.m), img)
			}
		}
	})
}
