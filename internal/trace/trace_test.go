package trace

import (
	"io"
	"math/rand"
	"testing"
	"unsafe"
)

func sampleTrace(n int, seed int64) *Slice {
	rng := rand.New(rand.NewSource(seed))
	s := &Slice{}
	var ip, addr uint64 = 0x400000, 0x10000000
	for i := 0; i < n; i++ {
		ip += uint64(rng.Intn(64))
		addr += uint64(rng.Int63n(1<<20)) - 1<<19
		k := Load
		if rng.Intn(4) == 0 {
			k = Store
		}
		s.Append(Record{
			IP: ip, Addr: addr, Kind: k,
			NonMemBefore: uint32(rng.Intn(16)),
			DepDist:      uint8(rng.Intn(8)),
		})
	}
	return s
}

func TestSliceReader(t *testing.T) {
	s := sampleTrace(10, 3)
	r := NewSliceReader(s)
	for i := 0; i < 10; i++ {
		rec, err := r.Next()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if rec != s.Records[i] {
			t.Fatalf("record %d mismatch", i)
		}
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("expected EOF, got %v", err)
	}
	r.Reset()
	if rec, err := r.Next(); err != nil || rec != s.Records[0] {
		t.Fatal("reset did not rewind")
	}
}

func TestLoopReaderWraps(t *testing.T) {
	s := sampleTrace(4, 4)
	r := NewLoopReader(s)
	for i := 0; i < 11; i++ {
		rec, err := r.Next()
		if err != nil {
			t.Fatalf("loop read %d: %v", i, err)
		}
		if rec != s.Records[i%4] {
			t.Fatalf("loop read %d mismatch", i)
		}
	}
	if r.Loops != 2 {
		t.Fatalf("expected 2 wraps, got %d", r.Loops)
	}
}

func TestLoopReaderEmpty(t *testing.T) {
	r := NewLoopReader(&Slice{})
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("expected EOF on empty loop reader, got %v", err)
	}
}

func TestInstructionsCount(t *testing.T) {
	s := &Slice{}
	s.Append(Record{NonMemBefore: 3})
	s.Append(Record{NonMemBefore: 0})
	s.Append(Record{NonMemBefore: 7})
	if got := s.Instructions(); got != 13 {
		t.Fatalf("instructions = %d, want 13", got)
	}
}

// TestRecordSize pins the packed layout: reordering the fields back to
// Kind before NonMemBefore would pad a record to 32 bytes.
func TestRecordSize(t *testing.T) {
	if n := unsafe.Sizeof(Record{}); n != 24 {
		t.Fatalf("trace.Record is %d bytes, want 24", n)
	}
}
