package core

import "hash/crc32"

// Mix64 is the SplitMix64 finalizer: a fast, high-quality 64-bit mixing
// function used to derive hash values and per-item pseudo-random draws from
// integer identities.
func Mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// HashString hashes a string to 64 bits using FNV-1a followed by a final
// mix, giving well-distributed values for use in sketches.
func HashString(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	var h uint64 = offset64
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return Mix64(h)
}

// HashBytes hashes a byte slice to 64 bits using FNV-1a followed by a
// final mix; it matches HashString on equal contents.
func HashBytes(b []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	var h uint64 = offset64
	for _, c := range b {
		h ^= uint64(c)
		h *= prime64
	}
	return Mix64(h)
}

// sealTag fills the high half of a sealed record's u64 sum slot (see
// Checksum). Any fixed value serves; this one reads "FDC2" in a little-endian
// dump of the slot's high half.
const sealTag = 0x3243_4446

// castagnoli is the CRC-32C table; crc32 computes with it in hardware
// (SSE4.2 and carry-less multiply on amd64, the CRC instructions on arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum is the integrity sum a sealed record (a wire frame, a
// write-ahead-log record, a state image, a checkpoint) carries in its u64
// sum slot: sealTag<<32 | CRC-32C(b). CRC-32C detects every error burst of
// at most 32 bits, so every single-bit flip among them, in a body of any
// length a record can have.
func Checksum(b []byte) uint64 {
	return sealTag<<32 | uint64(crc32.Checksum(b, castagnoli))
}

// ChecksumOK reports whether stored is a valid sum slot for body b: the
// tagged CRC-32C Checksum gives, or HashBytes(b), the sum records were sealed
// with before, so logs, state files and checkpoints written then still open.
// HashBytes is computed only when the tagged sum does not match.
func ChecksumOK(b []byte, stored uint64) bool {
	return stored == Checksum(b) || stored == HashBytes(b)
}

// Hash2 combines two 64-bit values into one well-mixed 64-bit hash.
func Hash2(a, b uint64) uint64 {
	return Mix64(a ^ Mix64(b+0x9e3779b97f4a7c15))
}

// U64ToUnit maps a 64-bit hash to the open unit interval (0, 1).
// The result is never exactly 0 or 1, so it is safe to take logarithms or
// reciprocals of it.
func U64ToUnit(x uint64) float64 {
	// Use the top 53 bits for a uniform dyadic rational in [0,1), then
	// shift half a ulp away from zero.
	return (float64(x>>11) + 0.5) / (1 << 53)
}
