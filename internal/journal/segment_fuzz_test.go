package journal

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// FuzzReadSegment: arbitrary bytes behind a valid v1 or v2 segment
// header never panic ReadSegment, and what it reads matches a walk of
// the same bytes by fixed stride: every CRC-valid frame of a known type
// up to the first bad one is counted, an event frame is an entry, a bad
// CRC or unknown type sets Corrupt, and a partial trailing frame (with
// nothing bad before it) sets Torn. With raw set the bytes are the
// whole file, header included, and only the absence of a panic is
// checked.
func FuzzReadSegment(f *testing.F) {
	v2 := AppendRecordFrames(nil, Record{Kind: KindAcquire, Origin: OriginLockd, AtNs: 5, Token: 7}, "orders", "cli-1")
	v2 = AppendRecordFrames(v2, Record{Kind: KindRelease, Origin: OriginLockd, AtNs: 6, Token: 7}, "orders", "")
	f.Add(v2, false, false)
	f.Add(v2[:len(v2)-9], false, false)
	bad := append([]byte(nil), v2...)
	bad[FrameSize+5] ^= 0x40
	f.Add(bad, false, false)
	v1 := v1Frame(frameLockName, func(b []byte) { b[1] = 3; b[2] = 1; copy(b[6:], "abc") })
	v1 = append(v1, v1Frame(frameEvent, func(b []byte) { b[1] = byte(KindAcquire); b[4] = 1 })...)
	f.Add(v1, true, false)
	f.Add(append(v1, 0xee), true, false)
	f.Add(v1Frame(0x7f, func([]byte) {}), true, false)
	f.Add([]byte{}, false, false)
	f.Add(append(segHeader(false), v2...), false, true)
	f.Add([]byte("LKJRNL2\nshort"), false, true)
	f.Fuzz(func(t *testing.T, data []byte, v1, raw bool) {
		file := data
		if !raw {
			file = append(segHeader(v1), data...)
		}
		path := filepath.Join(t.TempDir(), segmentName(3))
		if err := os.WriteFile(path, file, 0o644); err != nil {
			t.Fatal(err)
		}
		entries, info, err := ReadSegment(path)
		if raw {
			return
		}
		if err != nil {
			t.Fatalf("valid header rejected: %v", err)
		}
		size := FrameSize
		if v1 {
			size = FrameSizeV1
		}
		var frames, events int
		var corrupt, torn bool
		for off := 0; off < len(data); off += size {
			if off+size > len(data) {
				torn = true
				break
			}
			fr := data[off : off+size]
			crc := crc32.ChecksumIEEE(fr[:size-4])
			if crc != binary.LittleEndian.Uint32(fr[size-4:]) ||
				(fr[0] != frameEvent && fr[0] != frameLockName && fr[0] != frameAgentName) {
				corrupt = true
				break
			}
			frames++
			if fr[0] == frameEvent {
				events++
			}
		}
		if info.Frames != frames || info.Corrupt != corrupt || info.Torn != torn || len(entries) != events {
			t.Fatalf("read frames=%d corrupt=%v torn=%v entries=%d, want frames=%d corrupt=%v torn=%v entries=%d",
				info.Frames, info.Corrupt, info.Torn, len(entries), frames, corrupt, torn, events)
		}
		if info.Index != 3 || info.Size != int64(len(file)) {
			t.Fatalf("header fields: index %d size %d, want 3 and %d", info.Index, info.Size, len(file))
		}
	})
}

// segHeader is a valid segment header of either version, index 3.
func segHeader(v1 bool) []byte {
	hdr := make([]byte, segHeaderSize)
	encodeSegHeader(hdr, 3, 1760848841123456789)
	if v1 {
		copy(hdr, segMagicV1)
		binary.LittleEndian.PutUint32(hdr[28:], crc32.ChecksumIEEE(hdr[:28]))
	}
	return hdr
}

// v1Frame is one CRC-valid v1 frame of type typ, filled by fill.
func v1Frame(typ byte, fill func(b []byte)) []byte {
	b := make([]byte, FrameSizeV1)
	b[0] = typ
	fill(b)
	binary.LittleEndian.PutUint32(b[FrameSizeV1-4:], crc32.ChecksumIEEE(b[:FrameSizeV1-4]))
	return b
}
