package dlog

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzParseFrame feeds arbitrary file contents to the one parser in this
// repository whose bytes come back from a device rather than from this
// process: a crash, a torn write or a flipped bit decides what OpenFile
// reads. Whatever the bytes, replay must not panic, must stop at the first
// frame that is not complete and checksum-valid, must hand out nothing
// after it, and must leave a file that a second open replays identically.
func FuzzParseFrame(f *testing.F) {
	frame := func(rec Record) []byte {
		var b bytes.Buffer
		if err := appendFrame(&b, rec); err != nil {
			f.Fatal(err)
		}
		return b.Bytes()
	}
	file := func(parts ...[]byte) []byte {
		return append(append([]byte(nil), fileMagic...), bytes.Join(parts, nil)...)
	}
	one := frame(Record{Kind: 1, At: 7, Data: []byte("first")})
	two := frame(Record{Kind: 2, At: 9, Data: []byte("second")})
	hdr := func(n uint32) []byte {
		h := make([]byte, frameHeader)
		binary.LittleEndian.PutUint32(h, n)
		return h
	}
	flipped := append([]byte(nil), two...)
	flipped[4] ^= 1 // one bit of the stored CRC

	f.Add(file(one, two))                                  // a valid two-record file
	f.Add(file(one, two[:frameHeader-3]))                  // a torn header
	f.Add(file(one, hdr(0xFFFFFFFF), []byte("x")))         // a length no file can hold
	f.Add(file(one, hdr(frameBodyMin-1), make([]byte, 8))) // a body too short for kind + timestamp
	f.Add(file(one, flipped, one))                         // a flipped CRC bit, valid bytes behind it
	f.Add(file(frame(Record{Kind: KindCheckpoint, Data: []byte("ck")}), one))
	f.Add(fileMagic[:3]) // a torn initial write
	f.Add([]byte("not a dlog file at all"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		// The model: walk the frames with parseFrame alone.
		var want Recovered
		foreign := false
		size := len(data) // what the file must hold after the first open
		switch {
		case len(data) == 0:
			size = len(fileMagic)
		case len(data) < len(fileMagic):
			foreign = !bytes.HasPrefix(fileMagic, data)
			want.Torn, size = true, len(fileMagic)
		case !bytes.HasPrefix(data, fileMagic):
			foreign = true
		default:
			off := len(fileMagic)
			for {
				rec, next, ok := parseFrame(data, off)
				if !ok {
					break
				}
				if next <= off || next > len(data) {
					t.Fatalf("frame at %d ends at %d of %d bytes", off, next, len(data))
				}
				var again bytes.Buffer
				if err := appendFrame(&again, rec); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(again.Bytes(), data[off:next]) {
					t.Fatalf("accepted frame at %d does not re-encode to its own bytes", off)
				}
				if rec.Kind == KindCheckpoint {
					want.Checkpoint, want.Records = rec.Data, nil
				} else {
					want.Records = append(want.Records, rec)
				}
				off = next
			}
			want.Torn, size = off < len(data), off
		}

		path := filepath.Join(t.TempDir(), "log")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := OpenFile(path)
		if foreign {
			if err == nil {
				l.Close()
				t.Fatal("opened a file that does not start with the magic")
			}
			return
		}
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		got := l.Recovered()
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("replay yielded %+v, the frames before the first invalid one are %+v", got, want)
		}
		if info, err := os.Stat(path); err != nil || info.Size() != int64(size) {
			t.Fatalf("file holds %d bytes after replay (err %v), want the %d valid ones", info.Size(), err, size)
		}

		// The truncation removed the torn tail for good: a second open sees
		// the same records and nothing torn.
		l, err = OpenFile(path)
		if err != nil {
			t.Fatalf("re-open: %v", err)
		}
		again := l.Recovered()
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		want.Torn = false
		if !reflect.DeepEqual(again, want) {
			t.Fatalf("re-open yielded %+v, want %+v", again, want)
		}
	})
}
