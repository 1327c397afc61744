// Package persist is the durability substrate of the release service:
// versioned, checksummed state envelopes, an atomic snapshot store, and
// per-session append-only step journals. Recovery is "last good
// snapshot + replayed journal tail", so a crash — even a SIGKILL mid
// write — loses at most the torn tail of the record being appended,
// never the accumulated leakage accounting.
//
// The package deals only in opaque body bytes; what the bytes mean
// (gob-encoded session state, step records) is the caller's business.
// This keeps the corruption surface auditable: every read path here is
// fuzzed to never panic and never hand back bytes whose checksum does
// not match.
package persist

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Envelope wire layout (all integers little-endian):
//
//	offset  0: magic "TPLSNAP\x01" (8 bytes)
//	offset  8: schema version (uint32)
//	offset 12: body length (uint64)
//	offset 20: SHA-256 of version ‖ body length ‖ body (32 bytes)
//	offset 52: body
//
// The checksum covers the header fields, not just the body: a flipped
// bit in the version or length must fail closed, not decode into a
// plausible envelope with the wrong schema.
var envelopeMagic = [8]byte{'T', 'P', 'L', 'S', 'N', 'A', 'P', 1}

const envelopeHeaderSize = 8 + 4 + 8 + sha256.Size

// maxBodyBytes bounds the body length a decoder will believe. A flipped
// bit in the length field must not translate into a multi-gigabyte
// allocation; real snapshots (100k users, hundreds of steps) are a few
// tens of megabytes. (1<<31 - 1 rather than 1<<31 so the constant still
// fits an int on 32-bit platforms.)
const maxBodyBytes = 1<<31 - 1

// Typed decode failures. Every corrupt input maps to one of these;
// none of them is ever a panic.
var (
	// ErrBadMagic: the input does not start with the envelope magic —
	// not a snapshot file at all, or one from an incompatible lineage.
	ErrBadMagic = errors.New("persist: bad envelope magic")
	// ErrTruncated: the input ends before the declared body does.
	ErrTruncated = errors.New("persist: truncated envelope")
	// ErrChecksum: the body does not hash to the recorded checksum.
	ErrChecksum = errors.New("persist: body checksum mismatch")
	// ErrTooLarge: the declared body length exceeds the sanity bound.
	ErrTooLarge = errors.New("persist: declared body length implausible")
)

// EncodeEnvelope frames a body with magic, schema version and checksum.
//
//tplvet:hotpath
func EncodeEnvelope(w io.Writer, version uint32, body []byte) error {
	if len(body) > maxBodyBytes {
		return fmt.Errorf("%w: %d bytes", ErrTooLarge, len(body))
	}
	hdr := make([]byte, envelopeHeaderSize)
	copy(hdr, envelopeMagic[:])
	binary.LittleEndian.PutUint32(hdr[8:], version)
	binary.LittleEndian.PutUint64(hdr[12:], uint64(len(body)))
	sum := envelopeSum(hdr[8:20], body)
	copy(hdr[20:], sum[:])
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	_, err := w.Write(body)
	return err
}

// DecodeEnvelope reads one envelope, verifying magic, length and
// checksum. It returns the schema version and body; callers decide what
// versions they accept. Trailing data after the body is left unread
// (journals frame many envelopes back to back).
func DecodeEnvelope(r io.Reader) (version uint32, body []byte, err error) {
	return decodeEnvelope(r, -1)
}

// decodeEnvelope is DecodeEnvelope over a reader that holds size bytes
// in all (a file whose size is known), or an unknown number when size
// is negative. A known size lets a length field those bytes cannot
// back fail as ErrTruncated before anything is allocated for it, and
// lets the body be read into one buffer of exactly its length.
func decodeEnvelope(r io.Reader, size int64) (version uint32, body []byte, err error) {
	hdr := make([]byte, envelopeHeaderSize)
	if _, err := io.ReadFull(r, hdr); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return 0, nil, fmt.Errorf("%w: header", ErrTruncated)
		}
		return 0, nil, err
	}
	if !bytes.Equal(hdr[:8], envelopeMagic[:]) {
		return 0, nil, ErrBadMagic
	}
	version = binary.LittleEndian.Uint32(hdr[8:])
	n := binary.LittleEndian.Uint64(hdr[12:])
	if n > maxBodyBytes {
		return 0, nil, fmt.Errorf("%w: %d bytes", ErrTooLarge, n)
	}
	// Read the body in bounded chunks: a corrupt length field must cost
	// at most the bytes actually present, not an up-front allocation of
	// whatever the field claims. With a known size the field is checked
	// against it instead, and the body is one chunk.
	chunk := uint64(1 << 20)
	if size >= 0 {
		if n > uint64(max(size-envelopeHeaderSize, 0)) {
			return 0, nil, fmt.Errorf("%w: body of %d bytes in a %d-byte file", ErrTruncated, n, size)
		}
		chunk = n
	}
	body = make([]byte, 0, min(n, chunk))
	for uint64(len(body)) < n {
		next := min(n-uint64(len(body)), chunk)
		start := len(body)
		body = append(body, make([]byte, next)...)
		if _, err := io.ReadFull(r, body[start:]); err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				return 0, nil, fmt.Errorf("%w: body", ErrTruncated)
			}
			return 0, nil, err
		}
	}
	sum := envelopeSum(hdr[8:20], body)
	if !bytes.Equal(sum[:], hdr[20:]) {
		return 0, nil, ErrChecksum
	}
	return version, body, nil
}

// envelopeSum hashes the checksummed span: the version and length
// fields followed by the body.
func envelopeSum(versionAndLen, body []byte) [sha256.Size]byte {
	h := sha256.New()
	h.Write(versionAndLen)
	h.Write(body)
	var sum [sha256.Size]byte
	copy(sum[:], h.Sum(nil))
	return sum
}
