package tracestore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"

	"github.com/bertisim/berti/internal/trace"
)

// FuzzDecode throws arbitrary bytes at the v2 container. Opening and fully
// streaming any input must never panic, and allocations stay bounded by the
// format's validated limits (chunk record counts are cross-checked against
// payload sizes before any record slice is sized, and inflation is capped
// at the declared raw length) no matter what the length fields claim.
// Accepted inputs must round-trip: re-encoding the streamed records yields
// a container that decodes to the identical record sequence.
func FuzzDecode(f *testing.F) {
	// Seed corpus: valid containers plus the structured-damage variants the
	// decoder must reject gracefully (damaged index footer, bad chunk CRC,
	// truncated chunk, lying trailer).
	var empty bytes.Buffer
	if err := Write(&empty, &trace.Slice{}, Meta{}); err != nil {
		f.Fatal(err)
	}
	f.Add(empty.Bytes())

	s := synthFuzzSlice(600)
	var full bytes.Buffer
	if err := Write(&full, s, Meta{Workload: "fuzz-seed", ChunkRecords: 128}); err != nil {
		f.Fatal(err)
	}
	valid := full.Bytes()
	f.Add(valid)

	mut := func(i int) []byte {
		d := append([]byte(nil), valid...)
		d[i] ^= 0xff
		return d
	}
	f.Add(mut(len(valid) - trailerLen - 30))  // damaged index footer entry
	f.Add(mut(HeadMagicLen + 2))              // bad chunk payload -> CRC mismatch
	f.Add(valid[:HeadMagicLen+10])            // truncated mid-chunk, no footer
	f.Add(valid[:len(valid)-trailerLen])      // trailer sheared off
	f.Add(valid[:len(valid)-trailerLen-7])    // truncated inside footer
	f.Add(mut(len(valid) - 1))                // bad tail magic
	f.Add([]byte("BERTITR1not-a-v2-file...")) // v1 magic
	// Trailer claiming a huge chunk count over no data.
	huge := append([]byte(nil), headMagic[:]...)
	var tr [trailerLen]byte
	binary.LittleEndian.PutUint64(tr[0:8], uint64(len(huge)))
	binary.LittleEndian.PutUint32(tr[8:12], 1<<30)
	copy(tr[20:28], tailMagic[:])
	f.Add(append(huge, tr[:]...))

	f.Fuzz(func(t *testing.T, data []byte) {
		tf, err := OpenBytes(data)
		if err != nil {
			var fe *FormatError
			if !errors.As(err, &fe) {
				t.Fatalf("Open error is not a *FormatError: %v", err)
			}
			if fe.Offset < 0 || fe.Offset > int64(len(data)) {
				t.Fatalf("FormatError offset %d outside input of %d bytes", fe.Offset, len(data))
			}
			return
		}
		got, err := streamAll(tf)
		if err != nil {
			var fe *FormatError
			if !errors.As(err, &fe) {
				t.Fatalf("decode error is not a *FormatError: %v", err)
			}
			return
		}
		if uint64(len(got)) != tf.Meta().Records {
			t.Fatalf("streamed %d records, meta claims %d", len(got), tf.Meta().Records)
		}
		// Window fast-forward on an accepted input must never fail or
		// mis-position.
		if n := tf.Meta().Instructions; n > 0 {
			chunk, skip, _, err := tf.FastForward(n / 2)
			if err != nil {
				t.Fatalf("FastForward on accepted input: %v", err)
			}
			if chunk > tf.Chunks() || (chunk == tf.Chunks() && skip != 0) {
				t.Fatalf("FastForward out of range: chunk %d skip %d of %d chunks", chunk, skip, tf.Chunks())
			}
		}
		// Re-encode and compare (the container is not canonical byte-wise —
		// chunk framing may differ — but the record sequence is).
		var buf bytes.Buffer
		if err := Write(&buf, &trace.Slice{Records: got}, Meta{ChunkRecords: tf.Meta().ChunkRecords}); err != nil {
			t.Fatalf("re-encode of accepted input: %v", err)
		}
		tf2, err := OpenBytes(buf.Bytes())
		if err != nil {
			t.Fatalf("re-open of re-encoded input: %v", err)
		}
		again, err := streamAll(tf2)
		if err != nil {
			t.Fatalf("re-decode of re-encoded input: %v", err)
		}
		if len(got) != len(again) {
			t.Fatalf("round trip changed length: %d != %d", len(got), len(again))
		}
		for i := range got {
			if got[i] != again[i] {
				t.Fatalf("record %d changed in round trip: %+v != %+v", i, got[i], again[i])
			}
		}
	})
}

// streamAll drains a file through the synchronous reader.
func streamAll(f *File) ([]trace.Record, error) {
	r := f.NewReader(ReaderOptions{})
	var out []trace.Record
	for {
		rec, err := r.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, rec)
	}
}

// synthFuzzSlice mirrors synthSlice without depending on test ordering.
func synthFuzzSlice(n int) *trace.Slice {
	s := &trace.Slice{}
	x := uint64(99)
	for i := 0; i < n; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		s.Append(trace.Record{
			IP:           0x400000 + (x>>5)%512*21,
			Addr:         0x2_0000_0000 + (x>>17)%(1<<20)*64,
			Kind:         trace.Kind((x >> 2) & 1),
			NonMemBefore: uint32((x >> 31) % 9),
			DepDist:      uint8((x >> 41) % 4),
		})
	}
	return s
}
