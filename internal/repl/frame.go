package repl

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"perm/internal/wire"
)

// Frames are how payloads sit in a byte stream that may come back damaged:
// WAL segments (internal/wal), snapshots (internal/storage) and the
// replication feed (a wire.MsgChanges payload) are frames, made and checked
// here alone. A record frame is byte for byte the same in a WAL segment and
// on the feed.
//
//	[u32le payload length][u32le CRC32C(payload)][payload]

const (
	// FrameHeaderSize is the length and checksum before each payload.
	FrameHeaderSize = 8
	// MaxFramePayload rejects impossible lengths before allocating: storage
	// cuts a mutation at ~8 MiB per record, so 32 MiB leaves a 4x margin.
	MaxFramePayload = 32 << 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// AppendFrame appends payload as one frame.
func AppendFrame(dst, payload []byte) []byte {
	return sealFrame(append(append(dst, make([]byte, FrameHeaderSize)...), payload...), len(dst))
}

// AppendRecordFrame appends rec as one frame, encoding it in place.
func AppendRecordFrame(dst []byte, rec Record) []byte {
	return sealFrame(AppendRecord(append(dst, make([]byte, FrameHeaderSize)...), rec), len(dst))
}

// sealFrame fills in the header of the frame that starts at b[start:].
func sealFrame(b []byte, start int) []byte {
	payload := b[start+FrameHeaderSize:]
	binary.LittleEndian.PutUint32(b[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(b[start+4:], crc32.Checksum(payload, castagnoli))
	return b
}

// FrameSum folds the header of the frame that starts frame into sum. A
// stream's running sum changes when a frame is dropped, repeated or moved,
// which per-frame checksums cannot see; a snapshot ends with it.
func FrameSum(sum uint32, frame []byte) uint32 {
	return crc32.Update(sum, castagnoli, frame[:FrameHeaderSize])
}

// FrameReader reads frames from a (buffered) stream as they arrive, into one
// reused payload buffer.
type FrameReader struct {
	r   io.Reader
	hdr [FrameHeaderSize]byte
	buf []byte
	off int64  // bytes of whole, verified frames read: where a torn tail starts
	sum uint32 // FrameSum over them
}

// NewFrameReader reads frames from r.
func NewFrameReader(r io.Reader) *FrameReader { return &FrameReader{r: r} }

// Next returns the next payload, valid until the next call. At a clean end
// of the stream it returns io.EOF; every other failure — a torn or
// impossible frame, a checksum mismatch, a read error — wraps ErrCorrupt.
func (f *FrameReader) Next() ([]byte, error) {
	if _, err := io.ReadFull(f.r, f.hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("%w: torn frame header: %v", ErrCorrupt, err)
	}
	n := binary.LittleEndian.Uint32(f.hdr[:4])
	if n == 0 || n > MaxFramePayload {
		return nil, fmt.Errorf("%w: impossible frame length %d", ErrCorrupt, n)
	}
	if cap(f.buf) < int(n) {
		f.buf = make([]byte, n)
	}
	f.buf = f.buf[:n]
	if _, err := io.ReadFull(f.r, f.buf); err != nil {
		return nil, fmt.Errorf("%w: torn frame payload: %v", ErrCorrupt, err)
	}
	if crc32.Checksum(f.buf, castagnoli) != binary.LittleEndian.Uint32(f.hdr[4:]) {
		return nil, fmt.Errorf("%w: frame checksum mismatch", ErrCorrupt)
	}
	f.off += FrameHeaderSize + int64(n)
	f.sum = FrameSum(f.sum, f.hdr[:])
	return f.buf, nil
}

// Offset is the number of bytes of whole, verified frames read so far.
func (f *FrameReader) Offset() int64 { return f.off }

// Sum is FrameSum over the frames read so far.
func (f *FrameReader) Sum() uint32 { return f.sum }

// ReadRecordFrames decodes b, a run of record frames — a MsgChanges payload —
// and hands each record to apply in order. A damaged frame or record fails
// the walk with ErrCorrupt before it reaches apply; an error from apply ends
// the walk as it is.
func ReadRecordFrames(b []byte, apply func(Record) error) error {
	fr := NewFrameReader(bytes.NewReader(b))
	for {
		p, err := fr.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		r := wire.NewReader(p)
		rec, err := ReadRecord(r)
		if err != nil {
			return err
		}
		if err := r.Done(); err != nil {
			return fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		if err := apply(rec); err != nil {
			return err
		}
	}
}
