// Package trace defines the in-memory memory-access trace consumed by the
// simulator and produced by the workload generators, and the readers that
// replay it. The on-disk container is internal/tracestore.
//
// A trace is a sequence of Records. Each record describes one memory
// instruction: its instruction pointer, the virtual address it touches,
// whether it is a load or a store, and the number of non-memory
// instructions that execute before it (so instruction counts and IPC are
// well defined without storing every ALU op).
package trace

import (
	"fmt"
	"io"
)

// Kind distinguishes loads from stores.
type Kind uint8

const (
	// Load is a demand read.
	Load Kind = iota
	// Store is a demand write.
	Store
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Load:
		return "load"
	case Store:
		return "store"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Record is one memory instruction in a trace. Its fields run widest first
// so it packs into 24 bytes instead of 32: in-memory traces and streamed
// chunk buffers hold millions of records.
type Record struct {
	// IP is the virtual address of the instruction itself.
	IP uint64
	// Addr is the virtual byte address accessed.
	Addr uint64
	// NonMemBefore is the number of non-memory instructions that retire
	// between the previous memory instruction and this one.
	NonMemBefore uint32
	// Kind is Load or Store.
	Kind Kind
	// DepDist is the data-dependence distance: 0 means the access address
	// does not depend on an earlier load's value; k > 0 means the address
	// was computed from the value returned by the k-th previous memory
	// record (pointer chasing). The simulator delays issue of dependent
	// accesses until the producer load completes.
	DepDist uint8
}

// Reader yields trace records in program order.
type Reader interface {
	// Next returns the next record. It returns io.EOF when the trace is
	// exhausted and the reader may not be used afterwards.
	Next() (Record, error)
}

// Slice is an in-memory trace; use NewSliceReader to iterate it.
type Slice struct {
	Records []Record
}

// Append adds r at the end of the trace.
func (s *Slice) Append(r Record) { s.Records = append(s.Records, r) }

// Len returns the number of records.
func (s *Slice) Len() int { return len(s.Records) }

// Instructions returns the total instruction count represented by the trace
// (memory instructions plus the non-memory instructions between them).
func (s *Slice) Instructions() uint64 {
	var n uint64
	for i := range s.Records {
		n += uint64(s.Records[i].NonMemBefore) + 1
	}
	return n
}

// SliceReader iterates over a Slice.
type SliceReader struct {
	records []Record
	pos     int
}

// NewSliceReader returns a Reader over s. The slice must not be mutated
// while the reader is in use.
func NewSliceReader(s *Slice) *SliceReader {
	return &SliceReader{records: s.Records}
}

// Next implements Reader.
func (r *SliceReader) Next() (Record, error) {
	if r.pos >= len(r.records) {
		return Record{}, io.EOF
	}
	rec := r.records[r.pos]
	r.pos++
	return rec, nil
}

// Reset rewinds the reader to the beginning of the trace.
func (r *SliceReader) Reset() { r.pos = 0 }

// LoopReader replays an underlying slice forever (used for multi-core mixes
// where finished cores replay until all cores complete). It never returns
// io.EOF unless the slice is empty.
type LoopReader struct {
	records []Record
	pos     int
	// Loops counts how many times the trace has wrapped.
	Loops int
}

// NewLoopReader returns a looping reader over s.
func NewLoopReader(s *Slice) *LoopReader {
	return &LoopReader{records: s.Records}
}

// Next implements Reader.
func (r *LoopReader) Next() (Record, error) {
	if len(r.records) == 0 {
		return Record{}, io.EOF
	}
	if r.pos >= len(r.records) {
		r.pos = 0
		r.Loops++
	}
	rec := r.records[r.pos]
	r.pos++
	return rec, nil
}
