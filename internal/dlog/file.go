package dlog

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// fileMagic heads every log file; a file that does not start with it is
// rejected rather than silently replayed. Version 02 added the record
// timestamp to the frame body; 01 files are foreign to it (the journal is
// a cache of responses a client may retry for, not a migration surface).
var fileMagic = []byte("SFDLOG02")

// frameHeader is [u32 length of body][u32 crc32 of body], where the body
// is [kind][8-byte LE At timestamp][payload] — the timestamp sits in the
// durable framing, not the payload, so checkpoint policies can retain
// records by age without decoding owner payloads.
const frameHeader = 8

// frameBodyMin is the smallest valid body: kind byte + timestamp.
const frameBodyMin = 9

// FileLog is the real durable log used outside the simulator (the Live
// runtime's response journal). Records are CRC-framed in an append-only
// file; Open detects a torn tail — a record a crash cut short or
// corrupted — truncates it away and never replays it. Checkpoint
// compacts by writing a fresh file (magic + checkpoint record) and
// atomically renaming it over the old one.
//
// FileLog is safe for concurrent use.
type FileLog struct {
	mu        sync.Mutex
	path      string
	f         *os.File
	recovered Recovered
	stats     Stats
	// suffix counts the records behind the last checkpoint: the ones the
	// next checkpoint compacts away.
	suffix int
}

// OpenFile opens (or creates) a file-backed log, replaying its durable
// contents. A torn or corrupt tail is detected, counted, truncated and
// excluded from the recovered image.
func OpenFile(path string) (*FileLog, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("dlog: open %s: %w", path, err)
	}
	l := &FileLog{path: path, f: f}
	if err := l.replay(); err != nil {
		f.Close()
		return nil, err
	}
	return l, nil
}

// replay scans the file, validating every frame; it truncates the file at
// the first invalid byte (the torn tail) and records the durable image.
func (l *FileLog) replay() error {
	info, err := l.f.Stat()
	if err != nil {
		return fmt.Errorf("dlog: stat %s: %w", l.path, err)
	}
	if info.Size() == 0 {
		if _, err := l.f.Write(fileMagic); err != nil {
			return fmt.Errorf("dlog: init %s: %w", l.path, err)
		}
		return nil
	}
	buf, err := io.ReadAll(io.NewSectionReader(l.f, 0, info.Size()))
	if err != nil {
		return fmt.Errorf("dlog: read %s: %w", l.path, err)
	}
	if len(buf) < len(fileMagic) {
		// A crash tore even the initial magic write. A strict prefix of
		// the magic is a torn init — truncate and start fresh; anything
		// else is genuinely not ours.
		if string(buf) != string(fileMagic[:len(buf)]) {
			return fmt.Errorf("dlog: %s is not a dlog file", l.path)
		}
		l.stats.TornTails++
		if err := l.f.Truncate(0); err != nil {
			return fmt.Errorf("dlog: truncate torn init of %s: %w", l.path, err)
		}
		if _, err := l.f.WriteAt(fileMagic, 0); err != nil {
			return fmt.Errorf("dlog: re-init %s: %w", l.path, err)
		}
		if _, err := l.f.Seek(0, io.SeekEnd); err != nil {
			return fmt.Errorf("dlog: seek %s: %w", l.path, err)
		}
		return nil
	}
	if string(buf[:len(fileMagic)]) != string(fileMagic) {
		return fmt.Errorf("dlog: %s is not a dlog file", l.path)
	}
	off := len(fileMagic)
	valid := off
	for {
		rec, next, ok := parseFrame(buf, off)
		if !ok {
			break
		}
		if rec.Kind == KindCheckpoint {
			l.recovered.Checkpoint = rec.Data
			l.recovered.Records = nil
		} else {
			l.recovered.Records = append(l.recovered.Records, rec)
		}
		off = next
		valid = next
	}
	if valid < len(buf) {
		// Torn tail: a frame the crash cut short or corrupted. Truncate it
		// so it is never replayed — and never extended into a frame that
		// would "validate" with fresh appends behind a corrupt prefix.
		l.stats.TornTails++
		if err := l.f.Truncate(int64(valid)); err != nil {
			return fmt.Errorf("dlog: truncate torn tail of %s: %w", l.path, err)
		}
	}
	if _, err := l.f.Seek(0, io.SeekEnd); err != nil {
		return fmt.Errorf("dlog: seek %s: %w", l.path, err)
	}
	l.suffix = len(l.recovered.Records)
	return nil
}

// parseFrame validates one frame at off, returning the record and the
// next offset; ok=false when the bytes at off do not form a complete,
// checksum-valid frame.
func parseFrame(buf []byte, off int) (Record, int, bool) {
	if off+frameHeader > len(buf) {
		return Record{}, 0, false
	}
	n := int(binary.LittleEndian.Uint32(buf[off:]))
	crc := binary.LittleEndian.Uint32(buf[off+4:])
	if n < frameBodyMin || off+frameHeader+n > len(buf) {
		return Record{}, 0, false
	}
	body := buf[off+frameHeader : off+frameHeader+n]
	if crc32.ChecksumIEEE(body) != crc {
		return Record{}, 0, false
	}
	return Record{
		Kind: Kind(body[0]),
		At:   int64(binary.LittleEndian.Uint64(body[1:])),
		Data: append([]byte(nil), body[frameBodyMin:]...),
	}, off + frameHeader + n, true
}

// appendFrame writes one framed record to w.
func appendFrame(w io.Writer, rec Record) error {
	body := make([]byte, frameBodyMin+len(rec.Data))
	body[0] = byte(rec.Kind)
	binary.LittleEndian.PutUint64(body[1:], uint64(rec.At))
	copy(body[frameBodyMin:], rec.Data)
	var hdr [frameHeader]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(body)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(body))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(body)
	return err
}

// Recovered returns the durable image Open replayed.
func (l *FileLog) Recovered() Recovered {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.recovered
}

// Append writes one record (unsynced: it is durable only after Sync).
func (l *FileLog) Append(rec Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return fmt.Errorf("dlog: %s is closed", l.path)
	}
	if err := appendFrame(l.f, rec); err != nil {
		return fmt.Errorf("dlog: append to %s: %w", l.path, err)
	}
	l.stats.Appends++
	l.stats.AppendedBytes += len(rec.Data)
	l.suffix++
	return nil
}

// Sync makes every appended record durable (fsync).
func (l *FileLog) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return fmt.Errorf("dlog: %s is closed", l.path)
	}
	l.stats.Syncs++
	return l.f.Sync()
}

// Checkpoint compacts the log to a single checkpoint record: it writes a
// fresh file beside the old one, fsyncs it, and atomically renames it
// into place — a crash at any byte leaves either the old log or the new
// one, never a mix.
func (l *FileLog) Checkpoint(payload []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return fmt.Errorf("dlog: %s is closed", l.path)
	}
	tmp, err := os.CreateTemp(filepath.Dir(l.path), filepath.Base(l.path)+".ckpt-*")
	if err != nil {
		return fmt.Errorf("dlog: checkpoint %s: %w", l.path, err)
	}
	defer os.Remove(tmp.Name()) // no-op after the rename succeeds
	if _, err := tmp.Write(fileMagic); err == nil {
		err = appendFrame(tmp, Record{Kind: KindCheckpoint, Data: payload})
		if err == nil {
			err = tmp.Sync()
		}
	}
	if err != nil {
		tmp.Close()
		return fmt.Errorf("dlog: checkpoint %s: %w", l.path, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("dlog: checkpoint %s: %w", l.path, err)
	}
	if err := os.Rename(tmp.Name(), l.path); err != nil {
		return fmt.Errorf("dlog: checkpoint rename %s: %w", l.path, err)
	}
	// Make the rename itself durable: without the directory fsync a power
	// loss can resurrect the pre-checkpoint file, silently dropping every
	// record synced into the new one afterwards.
	if dir, err := os.Open(filepath.Dir(l.path)); err == nil {
		serr := dir.Sync()
		dir.Close()
		if serr != nil {
			return fmt.Errorf("dlog: fsync dir of %s: %w", l.path, serr)
		}
	} else {
		return fmt.Errorf("dlog: fsync dir of %s: %w", l.path, err)
	}
	old := l.f
	f, err := os.OpenFile(l.path, os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("dlog: reopen %s after checkpoint: %w", l.path, err)
	}
	old.Close()
	l.f = f
	l.stats.Checkpoints++
	l.stats.Compacted += l.suffix
	l.stats.Syncs++ // one sync point, as on SimLog, however many fsyncs it took
	l.suffix = 0
	return nil
}

// Close syncs and closes the file.
func (l *FileLog) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.f.Sync()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	return err
}

// Stats returns a copy of the activity counters.
func (l *FileLog) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}
