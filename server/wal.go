package server

// The service's ingest write-ahead log: the listener logs every data frame
// and heartbeat here BEFORE applying it (ingest.Config.WAL), so the ingest
// ack — sent after apply — implies the data is recoverable. A supervised
// restart replays the records past the last checkpoint's watermark into the
// rebuilt runs, and — because forward decay fixes each arrival's weight at
// arrival time — reproduces the uninterrupted output bit-exactly.
//
// Frame records carry their session and sequence number, so recovery also
// rebuilds the duplicate-detection table: a frame that was logged but whose
// ack was lost to the crash will be resent by the client and recognized as
// a duplicate instead of double-counted. Heartbeat records preserve the
// gsql.Value *type* (Int and Float heartbeats take different temporal-
// bucket paths through the engine).
//
// Layout: one file per checkpoint epoch, `ingest-%08d.wal`:
//
//	header = 8-byte magic "FDSRV\x01\x00\x00" · u64 epoch
//	then sealed records (the ingest length+checksum envelope):
//	  u8 recFrame     · u64 session · u64 seq · u16 n · n×23-byte packets
//	  u8 recHeartbeat · u8 kind (0=int, 1=float) · f64/i64 payload
//
// Epoch discipline: a checkpoint snapshots the runtime with `applied`
// records of epoch E consumed, durably writes the state file carrying
// (E, applied), then starts epoch E+1 (create the new file, sync the
// directory, delete the old). Recovery compares the newest WAL's epoch W
// to the state file's E:
//
//	W == E   → replay records after `applied` (crash before rotation)
//	W  > E   → rotation happened after the state write: replay everything
//
// A torn final record (crash mid-append) is truncated away: its frame was
// never acked, so the client will resend it. Torn bytes anywhere else are
// corruption and refuse to load. Each record lands in the file (one write
// syscall) before the ack goes out — durable against a process kill; the
// power-cut story is the checkpoint's fsync-before-rename plus the epoch
// files' directory syncs, the same stance the distrib WAL takes.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"

	"forwarddecay/gsql"
	"forwarddecay/ingest"
	"forwarddecay/internal/durable"
	"forwarddecay/netgen"
)

var walMagic = [8]byte{'F', 'D', 'S', 'R', 'V', 1, 0, 0}

const (
	recFrame     = 1
	recHeartbeat = 2

	hbInt   = 0
	hbFloat = 1

	// walMaxRecord bounds a sealed record body: the largest data frame the
	// ingest listener accepts, plus the record header.
	walMaxRecord = ingest.DefaultMaxFrame + 32
)

// walRecord is one replayable ingest event.
type walRecord struct {
	kind byte
	sess uint64          // recFrame
	seq  uint64          // recFrame
	pkts []netgen.Packet // recFrame
	hb   gsql.Value      // recHeartbeat (TInt or TFloat)
}

// walName formats the file name for an epoch.
func walName(dir string, epoch uint64) string {
	return filepath.Join(dir, fmt.Sprintf("ingest-%08d.wal", epoch))
}

// ingestWAL is the append side. Not self-locking: the ingest listener's
// single pump goroutine is the only appender (rotation happens inside the
// pump's checkpoint hook), with the runtime builder touching it only before
// the listener exists.
type ingestWAL struct {
	dir     string
	epoch   uint64
	f       *os.File
	applied uint64 // records appended in the current epoch
	buf     []byte // reused encode buffer
}

// LogFrame implements ingest.ApplyLog.
func (w *ingestWAL) LogFrame(session, seq uint64, pkts []netgen.Packet) error {
	b := append(ingest.ReserveSealed(w.buf[:0]), recFrame)
	b = binary.LittleEndian.AppendUint64(b, session)
	b = binary.LittleEndian.AppendUint64(b, seq)
	b = binary.LittleEndian.AppendUint16(b, uint16(len(pkts)))
	for _, p := range pkts {
		b = netgen.AppendPacketRecord(b, p)
	}
	return w.writeSealed(b)
}

// LogHeartbeat implements ingest.ApplyLog.
func (w *ingestWAL) LogHeartbeat(ts gsql.Value) error {
	b := append(ingest.ReserveSealed(w.buf[:0]), recHeartbeat)
	switch ts.T {
	case gsql.TInt:
		b = append(b, hbInt)
		b = binary.LittleEndian.AppendUint64(b, uint64(ts.I))
	case gsql.TFloat:
		b = append(b, hbFloat)
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(ts.F))
	default:
		return fmt.Errorf("server: wal: heartbeat value type %v not persistable", ts.T)
	}
	return w.writeSealed(b)
}

// writeSealed seals the record body built after the reserved header in b (the
// reused encode buffer) and writes it. The write syscall lands the bytes in
// the file before the frame is acked, which is what makes an in-process kill
// recoverable.
func (w *ingestWAL) writeSealed(b []byte) error {
	ingest.SealInPlace(b, 0)
	w.buf = b
	if _, err := w.f.Write(w.buf); err != nil {
		return fmt.Errorf("server: wal append: %w", err)
	}
	w.applied++
	return nil
}

// rotate starts the next epoch: create its file, sync the directory, then
// delete the previous epoch's file (its records are covered by the state
// file the caller just wrote).
func (w *ingestWAL) rotate() error {
	old, oldEpoch := w.f, w.epoch
	f, err := createWAL(w.dir, w.epoch+1)
	if err != nil {
		return err
	}
	w.f, w.epoch, w.applied = f, w.epoch+1, 0
	if old != nil {
		old.Close()
		if err := os.Remove(walName(w.dir, oldEpoch)); err != nil {
			return fmt.Errorf("server: wal rotate: %w", err)
		}
		if err := durable.SyncDir(w.dir); err != nil {
			return err
		}
	}
	return nil
}

// sync fsyncs the active file — called when sealing a checkpoint so the
// watermark the state file claims is durable.
func (w *ingestWAL) sync() error {
	if w.f == nil {
		return nil
	}
	return durable.SyncFile(w.f)
}

// close closes the epoch file. w.f is deliberately left non-nil: the
// supervisor closes an abandoned incarnation's WAL to fence a wedged pump,
// which may concurrently attempt an append — File.Write and File.Close are
// synchronized by the runtime, but storing nil here would be a data race
// with that append's field read. A post-close append simply errors.
func (w *ingestWAL) close() error {
	if w.f == nil {
		return nil
	}
	return w.f.Close()
}

// createWAL creates (exclusively) and headers the file for an epoch, then
// syncs the directory so the name survives a power cut.
func createWAL(dir string, epoch uint64) (*os.File, error) {
	f, err := os.OpenFile(walName(dir, epoch), os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, fmt.Errorf("server: wal create: %w", err)
	}
	hdr := make([]byte, 16)
	copy(hdr, walMagic[:])
	binary.LittleEndian.PutUint64(hdr[8:], epoch)
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return nil, fmt.Errorf("server: wal create: %w", err)
	}
	if err := durable.SyncDir(dir); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// openWAL scans dir for the newest WAL epoch, repairs a torn tail, deletes
// superseded epochs, and returns the records of the surviving epoch plus an
// appender positioned at its end. A directory with no WAL starts epoch 1.
func openWAL(dir string) (w *ingestWAL, recs []walRecord, err error) {
	names, err := filepath.Glob(filepath.Join(dir, "ingest-*.wal"))
	if err != nil {
		return nil, nil, fmt.Errorf("server: wal open: %w", err)
	}
	sort.Strings(names)
	if len(names) == 0 {
		f, err := createWAL(dir, 1)
		if err != nil {
			return nil, nil, err
		}
		return &ingestWAL{dir: dir, epoch: 1, f: f}, nil, nil
	}
	// Only the newest epoch matters; older files are leftovers of a crash
	// mid-rotation, fully covered by the state file written before the
	// newer epoch was created.
	newest := names[len(names)-1]
	for _, n := range names[:len(names)-1] {
		if err := os.Remove(n); err != nil {
			return nil, nil, fmt.Errorf("server: wal open: removing superseded %s: %w", n, err)
		}
	}
	data, err := os.ReadFile(newest)
	if err != nil {
		return nil, nil, fmt.Errorf("server: wal open: %w", err)
	}
	if len(data) < 16 || [8]byte(data[:8]) != walMagic {
		return nil, nil, fmt.Errorf("server: wal open: %s: bad header", filepath.Base(newest))
	}
	epoch := binary.LittleEndian.Uint64(data[8:16])
	good := 16
	off := 16
	for off < len(data) {
		body, n, derr := ingest.DecodeSealed(data[off:], walMaxRecord)
		if errors.Is(derr, ingest.ErrIncomplete) {
			break // torn tail: crash mid-append; the frame was never acked
		}
		if derr != nil {
			return nil, nil, fmt.Errorf("server: wal open: %s: offset %d: %w", filepath.Base(newest), off, derr)
		}
		rec, rerr := decodeWALRecord(body)
		if rerr != nil {
			return nil, nil, fmt.Errorf("server: wal open: %s: offset %d: %w", filepath.Base(newest), off, rerr)
		}
		recs = append(recs, rec)
		off += n
		good = off
	}
	if good < len(data) {
		if err := os.Truncate(newest, int64(good)); err != nil {
			return nil, nil, fmt.Errorf("server: wal open: truncating torn tail: %w", err)
		}
	}
	f, err := os.OpenFile(newest, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("server: wal open: %w", err)
	}
	return &ingestWAL{dir: dir, epoch: epoch, f: f, applied: uint64(len(recs))}, recs, nil
}

func decodeWALRecord(body []byte) (walRecord, error) {
	if len(body) < 1 {
		return walRecord{}, errors.New("empty record body")
	}
	switch body[0] {
	case recFrame:
		if len(body) < 1+8+8+2 {
			return walRecord{}, fmt.Errorf("frame record header is %d bytes, want >= 19", len(body))
		}
		r := walRecord{
			kind: recFrame,
			sess: binary.LittleEndian.Uint64(body[1:]),
			seq:  binary.LittleEndian.Uint64(body[9:]),
		}
		n := int(binary.LittleEndian.Uint16(body[17:]))
		rest := body[19:]
		if len(rest) != n*netgen.PacketRecordSize {
			return walRecord{}, fmt.Errorf("frame record claims %d packets but carries %d bytes", n, len(rest))
		}
		r.pkts = make([]netgen.Packet, n)
		for i := 0; i < n; i++ {
			r.pkts[i] = netgen.DecodePacketRecord(rest[i*netgen.PacketRecordSize:])
		}
		return r, nil
	case recHeartbeat:
		if len(body) != 1+1+8 {
			return walRecord{}, fmt.Errorf("heartbeat record is %d bytes, want 10", len(body))
		}
		bits := binary.LittleEndian.Uint64(body[2:])
		switch body[1] {
		case hbInt:
			return walRecord{kind: recHeartbeat, hb: gsql.Int(int64(bits))}, nil
		case hbFloat:
			f := math.Float64frombits(bits)
			if math.IsNaN(f) || math.IsInf(f, 0) {
				return walRecord{}, fmt.Errorf("non-finite heartbeat %v", f)
			}
			return walRecord{kind: recHeartbeat, hb: gsql.Float(f)}, nil
		default:
			return walRecord{}, fmt.Errorf("unknown heartbeat kind %d", body[1])
		}
	default:
		return walRecord{}, fmt.Errorf("unknown record kind %d", body[0])
	}
}
