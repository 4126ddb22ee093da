package netgen

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// traceMagic identifies the binary trace format written by WriteTrace.
const traceMagic = 0x46445452 // "FDTR"

// PacketRecordSize is the encoded size of one packet record — the unit
// shared by the trace format and the ingest wire protocol.
const PacketRecordSize = 8 + 4 + 4 + 2 + 2 + 1 + 2

// AppendPacketRecord appends the little-endian fixed-size encoding of p
// (PacketRecordSize bytes) to dst and returns the extended slice.
func AppendPacketRecord(dst []byte, p Packet) []byte {
	var rec [PacketRecordSize]byte
	binary.LittleEndian.PutUint64(rec[0:8], math.Float64bits(p.Time))
	binary.LittleEndian.PutUint32(rec[8:12], p.SrcIP)
	binary.LittleEndian.PutUint32(rec[12:16], p.DstIP)
	binary.LittleEndian.PutUint16(rec[16:18], p.SrcPort)
	binary.LittleEndian.PutUint16(rec[18:20], p.DstPort)
	rec[20] = p.Proto
	binary.LittleEndian.PutUint16(rec[21:23], p.Len)
	return append(dst, rec[:]...)
}

// DecodePacketRecord decodes one packet record. b must hold at least
// PacketRecordSize bytes (the caller owns framing).
func DecodePacketRecord(b []byte) Packet {
	return Packet{
		Time:    math.Float64frombits(binary.LittleEndian.Uint64(b[0:8])),
		SrcIP:   binary.LittleEndian.Uint32(b[8:12]),
		DstIP:   binary.LittleEndian.Uint32(b[12:16]),
		SrcPort: binary.LittleEndian.Uint16(b[16:18]),
		DstPort: binary.LittleEndian.Uint16(b[18:20]),
		Proto:   b[20],
		Len:     binary.LittleEndian.Uint16(b[21:23]),
	}
}

// WriteTrace writes packets to w in the repository's compact binary trace
// format (little-endian fixed-size records behind a magic/count header).
func WriteTrace(w io.Writer, pkts []Packet) error {
	bw := bufio.NewWriter(w)
	var hdr [12]byte
	binary.LittleEndian.PutUint32(hdr[0:4], traceMagic)
	binary.LittleEndian.PutUint64(hdr[4:12], uint64(len(pkts)))
	if _, err := bw.Write(hdr[:]); err != nil {
		return fmt.Errorf("netgen: writing trace header: %w", err)
	}
	rec := make([]byte, 0, PacketRecordSize)
	for _, p := range pkts {
		rec = AppendPacketRecord(rec[:0], p)
		if _, err := bw.Write(rec); err != nil {
			return fmt.Errorf("netgen: writing trace record: %w", err)
		}
	}
	return bw.Flush()
}

// ReadTrace reads a trace written by WriteTrace. It collects through
// StreamTrace, so the slice grows with the records actually read, never
// with the count the header claims.
func ReadTrace(r io.Reader) ([]Packet, error) {
	var pkts []Packet
	err := StreamTrace(r, func(p Packet) error {
		pkts = append(pkts, p)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return pkts, nil
}

// StreamTrace reads a trace written by WriteTrace incrementally, invoking
// fn for every packet without materializing the whole trace — the path for
// replaying large captures. fn may return an error to stop early, which
// StreamTrace returns unchanged.
func StreamTrace(r io.Reader, fn func(Packet) error) error {
	br := bufio.NewReader(r)
	var hdr [12]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return fmt.Errorf("netgen: reading trace header: %w", err)
	}
	if binary.LittleEndian.Uint32(hdr[0:4]) != traceMagic {
		return fmt.Errorf("netgen: not a trace file (bad magic)")
	}
	n := binary.LittleEndian.Uint64(hdr[4:12])
	var rec [PacketRecordSize]byte
	for i := uint64(0); i < n; i++ {
		if _, err := io.ReadFull(br, rec[:]); err != nil {
			return fmt.Errorf("netgen: reading trace record %d: %w", i, err)
		}
		if err := fn(DecodePacketRecord(rec[:])); err != nil {
			return err
		}
	}
	return nil
}

// FormatIP renders a uint32 IPv4 address in dotted-quad form.
func FormatIP(ip uint32) string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(ip>>24), byte(ip>>16), byte(ip>>8), byte(ip))
}
