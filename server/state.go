package server

// The checkpoint state file.
//
// The state file is the service's restart anchor: for every attached query
// it holds the query text, the engine checkpoint (the paper's decayed
// partials, exact because forward-decay weights are fixed at arrival), and
// the result ring snapshot with its absolute cursors; plus the ingest
// session table and the WAL watermark (epoch, applied). Restart = load
// state + replay WAL past the watermark; the catalog changes since the
// watermark are records of that log too (wal.go). The whole file is wrapped in
// a core.HashBytes trailer and written with durable.WriteFileAtomic.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"forwarddecay/gsql"
	"forwarddecay/internal/codec"
	"forwarddecay/internal/durable"
)

// stateMagic's last byte is the format version. Version 2 added the
// per-query quarantine trailer (flag + reason); version-1 files are still
// accepted and decode with every query live.
var stateMagic = [8]byte{'F', 'D', 'S', 'T', 'A', 'T', 'E', 2}

const stateVersionV1 = 1

const (
	stateFile = "server.state"
	// legacyJournal is where older binaries kept the catalog changes since
	// the last checkpoint, beside the log instead of in it.
	legacyJournal = "catalog.journal"
)

// queryState is one query's persisted slice of the state file. The ring
// image (base, rows, end) is filled by decoding only: a checkpoint encodes it
// straight from the live ring (appendQueryState).
type queryState struct {
	id   uint32
	text string
	ckpt []byte // engine checkpoint
	base uint64 // result ring snapshot
	rows rowBuf
	end  uint64 // highest assigned cursor at checkpoint time
	// Quarantine trailer (state v2): a fenced query is persisted dormant —
	// ckpt holds the partials retained at the moment it was fenced, and the
	// rebuilt catalog does not re-attach it until an operator revives it.
	quarantined bool
	qreason     string
}

// serverState is the full parsed state file.
type serverState struct {
	walEpoch    uint64
	walApplied  uint64
	nextQueryID uint32
	queries     []queryState
	sessions    map[uint64]uint64
}

// A state file image is assembled in steps, so a checkpoint can encode each
// query as it visits it, its ring included, into one buffer: beginState,
// appendQueryState once per query, finishState — and, off the pump,
// codec.Seal.

// beginState starts an image on b for the given number of queries.
func beginState(b []byte, walEpoch, walApplied uint64, nextQueryID uint32, queries int) []byte {
	b = codec.AppendU64(append(b, stateMagic[:]...), walEpoch)
	b = codec.AppendU32(codec.AppendU64(b, walApplied), nextQueryID)
	return codec.AppendU32(b, uint32(queries))
}

// appendQueryState appends one query: q's catalog fields and engine
// checkpoint, and the ring image read from ring.
func appendQueryState(b []byte, q *queryState, ring *resultLog) []byte {
	b = codec.AppendBytes32(codec.AppendU32(b, q.id), q.text)
	b = codec.AppendU32(b, 0) // shard count of older binaries
	b = codec.AppendU64(b, 0) // replay start of older binaries
	b = codec.AppendBytes32(b, q.ckpt)
	b = codec.AppendBool(ring.appendSnapshot(b), q.quarantined)
	if q.quarantined {
		b = codec.AppendBytes32(b, q.qreason)
	}
	return b
}

// finishState appends the session table, the last part of the payload.
func finishState(b []byte, sessions map[uint64]uint64) []byte {
	b = codec.AppendU32(b, uint32(len(sessions)))
	for id, applied := range sessions {
		b = codec.AppendU64(codec.AppendU64(b, id), applied)
	}
	return b
}

// stateQueryBytes is the least a query takes in a state file: its fixed
// fields and the length prefixes of the variable ones.
const stateQueryBytes = 4 + 4 + 4 + 8 + 4 + 8 + 8 + 4

// decodeState parses and verifies a state file image.
func decodeState(b []byte) (*serverState, error) {
	if len(b) < len(stateMagic)+8 {
		return nil, errors.New("server: state file too short")
	}
	version := b[7]
	if [7]byte(b[:7]) != [7]byte(stateMagic[:7]) || (version != stateVersionV1 && version != stateMagic[7]) {
		return nil, errors.New("server: state file: bad magic")
	}
	payload, ok := codec.Unseal(b)
	if !ok {
		return nil, errors.New("server: state file: checksum mismatch")
	}
	d := codec.NewDec(payload, "server: state file")
	d.Bytes(uint64(len(stateMagic)))
	st := &serverState{walEpoch: d.U64(), walApplied: d.U64(), nextQueryID: d.U32()}
	for range d.Count(uint64(d.U32()), stateQueryBytes) {
		q := queryState{id: d.U32(), text: string(d.Bytes32())}
		if shards := d.U32(); shards != 0 {
			// Written under -shards n: resuming the query on the serial
			// runtime would be a silent downgrade, so the load fails.
			return nil, fmt.Errorf("server: state file: query %d: %w", q.id,
				&gsql.ShardedUnsupportedError{Query: q.text, Shards: int(shards)})
		}
		d.U64() // replay start of older binaries, always 0
		q.ckpt = append([]byte(nil), d.Bytes32()...)
		q.base, q.end = d.U64(), d.U64()
		readRingRows(&d, &q.rows)
		if version >= 2 && d.Bool() {
			q.quarantined, q.qreason = true, string(d.Bytes32())
		}
		st.queries = append(st.queries, q)
	}
	ns := d.Count(uint64(d.U32()), 16)
	st.sessions = make(map[uint64]uint64, ns)
	for range ns {
		id := d.U64()
		st.sessions[id] = d.U64()
	}
	if err := d.Done(); err != nil {
		return nil, err
	}
	return st, nil
}

// writeState durably replaces the state file with a finished image.
func writeState(dir string, image []byte) error {
	return durable.WriteFileAtomic(filepath.Join(dir, stateFile), image, 0o644)
}

// loadState reads the state file; a missing file returns (nil, nil) — a
// fresh directory, not an error.
func loadState(dir string) (*serverState, error) {
	b, err := os.ReadFile(filepath.Join(dir, stateFile))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("server: state: %w", err)
	}
	return decodeState(b)
}

// LegacyJournalError refuses a state directory whose catalog journal, left by
// an older binary, still holds entries: they may be catalog changes that no
// state file holds, and this version reads no journal.
type LegacyJournalError struct{ Path string }

func (e *LegacyJournalError) Error() string {
	return fmt.Sprintf("server: %s holds catalog changes this version does not read "+
		"(recover the directory with the version that wrote it, or remove the file to drop them)", e.Path)
}

// dropLegacyJournal removes an empty legacy journal and refuses a non-empty
// one, deleting nothing.
func dropLegacyJournal(dir string) error {
	path := filepath.Join(dir, legacyJournal)
	fi, err := os.Stat(path)
	switch {
	case os.IsNotExist(err):
		return nil
	case err != nil:
		return fmt.Errorf("server: state dir: %w", err)
	case fi.Size() > 0:
		return &LegacyJournalError{Path: path}
	}
	if err := os.Remove(path); err != nil {
		return fmt.Errorf("server: state dir: %w", err)
	}
	return nil
}
