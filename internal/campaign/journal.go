// Package campaign makes long multi-experiment evaluations crash-safe. A
// Journal is an append-only, CRC-protected JSONL file that persists each
// completed run's result (keyed by the harness memo key) the moment it
// finishes: one write and one fsync per run. A re-invoked campaign loads
// the journal, pre-seeds the harness memo cache, and re-executes only the
// unfinished runs; a tail torn by a crash, OOM-kill, or Ctrl-C is
// truncated at load and its run re-executed rather than failing the
// resume.
//
// On-disk format (see DESIGN.md §12): one record per line, each line
//
//	<crc32c of payload, 8 lowercase hex> <payload JSON>\n
//
// where the first payload is a header naming the format and the campaign
// scale, and every following payload is {"key": ..., "result": ...}. The
// CRC (Castagnoli, matching the tracestore chunks) covers exactly the
// payload bytes, so any bit flip, torn write, or editor mangling is
// detected at load; validation stops at the first damaged record and the
// file is rewritten to the surviving prefix.
package campaign

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"

	"github.com/bertisim/berti/internal/harness"
	"github.com/bertisim/berti/internal/sim"
)

// Magic identifies a journal header payload.
const Magic = "berti-campaign"

// Version is the journal format version this package writes.
const Version = 1

// JournalExt is the conventional file extension for a journal.
const JournalExt = ".journal"

// crcTable is the Castagnoli polynomial, shared with the tracestore.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// syncWrites fsyncs every journal append and every WriteFileAtomic before
// it returns. Always on in production; the fuzz harness disables it
// (thousands of throwaway journals per second do not need durability).
var syncWrites = true

// header is the first record of every journal.
type header struct {
	Magic   string        `json:"magic"`
	Version int           `json:"version"`
	Scale   harness.Scale `json:"scale"`
}

// Entry is one completed run: the harness memo key and its result.
type Entry struct {
	Key    string      `json:"key"`
	Result *sim.Result `json:"result"`
}

// HeaderError reports a journal whose first record is missing, damaged, or
// not a journal header at all. Unlike tail damage this is not recoverable:
// without a trusted header the entries cannot be validated against the
// campaign's scale, and the file may simply not be a journal.
type HeaderError struct {
	// Path is the offending file.
	Path string
	// Reason describes the failure.
	Reason string
}

// Error implements error.
func (e *HeaderError) Error() string {
	return fmt.Sprintf("campaign: %s: invalid journal header: %s", e.Path, e.Reason)
}

// ScaleMismatchError reports a resume attempt against a journal written at
// a different scale. Seeding those results would silently mix
// methodologies (the memo key does not encode the scale), so the caller
// must either rerun at the journal's scale or start a fresh journal.
type ScaleMismatchError struct {
	// JournalScale is what the journal was recorded at.
	JournalScale harness.Scale
	// WantScale is the scale of the resuming campaign.
	WantScale harness.Scale
}

// Error implements error.
func (e *ScaleMismatchError) Error() string {
	return fmt.Sprintf("campaign: journal was recorded at scale %q (%d records, %d warmup, %d measured); resuming at %q (%d, %d, %d) would mix methodologies",
		e.JournalScale.Name, e.JournalScale.MemRecords, e.JournalScale.WarmupInstr, e.JournalScale.SimInstr,
		e.WantScale.Name, e.WantScale.MemRecords, e.WantScale.WarmupInstr, e.WantScale.SimInstr)
}

// Journal is the crash-safe campaign log. All methods are safe for
// concurrent use (harness workers append from multiple goroutines).
type Journal struct {
	mu      sync.Mutex
	path    string
	scale   harness.Scale
	entries []Entry
	byKey   map[string]int // key -> index in entries
	dropped int            // records lost to tail truncation at load
	err     error          // first failed Append; no Append writes after it
}

// Create starts a fresh journal at path, replacing any existing file, and
// persists the header record immediately.
func Create(path string, scale harness.Scale) (*Journal, error) {
	line, err := encodeLine(header{Magic: Magic, Version: Version, Scale: scale})
	if err != nil {
		return nil, err
	}
	if err := writeAll(path, line); err != nil {
		return nil, err
	}
	return &Journal{path: path, scale: scale, byKey: map[string]int{}}, nil
}

// Open loads an existing journal, validating every record's CRC and shape.
// The first damaged record and everything after it are dropped and the
// file is rewritten to the valid prefix (atomically), so a torn tail from
// a crash costs at most the interrupted run. This is the journal's only
// recovery: Append never rewrites what is already on disk. A missing file
// is an *os.PathError; a damaged first record is a *HeaderError.
func Open(path string) (*Journal, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	j := &Journal{path: path, byKey: map[string]int{}}
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 64*1024), 64*1024*1024)
	first := true
	var valid []byte
	for sc.Scan() {
		line := sc.Bytes()
		payload, ok := checkLine(line)
		if first {
			var h header
			if !ok || json.Unmarshal(payload, &h) != nil {
				return nil, &HeaderError{Path: path, Reason: "first record is missing or damaged"}
			}
			if h.Magic != Magic {
				return nil, &HeaderError{Path: path, Reason: fmt.Sprintf("magic %q, want %q", h.Magic, Magic)}
			}
			if h.Version != Version {
				return nil, &HeaderError{Path: path, Reason: fmt.Sprintf("version %d, want %d", h.Version, Version)}
			}
			j.scale = h.Scale
			first = false
			valid = append(valid, line...)
			valid = append(valid, '\n')
			continue
		}
		var e Entry
		if !ok || json.Unmarshal(payload, &e) != nil || e.Key == "" || e.Result == nil {
			// Tail damage: stop here, drop this and everything after.
			j.dropped++
			break
		}
		j.addEntry(e)
		valid = append(valid, line...)
		valid = append(valid, '\n')
	}
	if first {
		return nil, &HeaderError{Path: path, Reason: "empty file"}
	}
	if len(valid) != len(data) {
		// Truncate the damaged tail on disk (and terminate a valid last
		// line that lacks its newline) so appends extend a clean file.
		if err := writeAll(path, valid); err != nil {
			return nil, err
		}
	}
	return j, nil
}

// OpenOrCreate resumes an existing journal or starts a fresh one when path
// does not exist. An existing journal recorded at a different scale yields
// a *ScaleMismatchError; resume and Seed would otherwise silently mix
// results from different methodologies.
func OpenOrCreate(path string, scale harness.Scale) (*Journal, error) {
	j, err := Open(path)
	if os.IsNotExist(err) {
		return Create(path, scale)
	}
	if err != nil {
		return nil, err
	}
	if j.scale != scale {
		return nil, &ScaleMismatchError{JournalScale: j.scale, WantScale: scale}
	}
	return j, nil
}

// addEntry records e in memory, last-writer-wins per key.
func (j *Journal) addEntry(e Entry) {
	if i, ok := j.byKey[e.Key]; ok {
		j.entries[i] = e
		return
	}
	j.byKey[e.Key] = len(j.entries)
	j.entries = append(j.entries, e)
}

// Append persists one completed run as one fsynced write at the end of
// the file; a crash mid-Append leaves at most a torn last line, which the
// next Open drops. Already-journaled keys are skipped (a resumed campaign
// may re-complete a memoized run). A failed Append may leave a torn line
// too, so the journal stops there: later Appends write nothing and return
// the same error, which Err reports.
func (j *Journal) Append(key string, r *sim.Result) error {
	if r == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return j.err
	}
	if _, ok := j.byKey[key]; ok {
		return nil
	}
	e := Entry{Key: key, Result: r}
	line, err := encodeLine(e)
	if err == nil {
		err = appendLine(j.path, line)
	}
	if err != nil {
		j.err = err
		return err
	}
	j.addEntry(e)
	return nil
}

// appendLine appends line to the existing file at path and fsyncs it. A
// vanished file is an error, not recreated: it would lack the header.
func appendLine(path string, line []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return err
	}
	_, err = f.Write(line)
	if err == nil && syncWrites {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// writeAll atomically replaces path with data.
func writeAll(path string, data []byte) error {
	return WriteFileAtomic(path, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}

// WriteFileAtomic replaces the file at path with what write produces: a
// temp file in path's directory is written, fsynced, closed and renamed
// over path, so readers and crashes see the old file or the new one. On
// any error the temp file is removed and path is untouched. Temp names
// (".tmp-*") never end in path's extension, so suffix scans (the result
// store's ".json" count, the daemon's manifest recovery) skip them.
func WriteFileAtomic(path string, write func(io.Writer) error) error {
	f, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	err = write(f)
	if err == nil && syncWrites {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		os.Remove(f.Name())
	}
	return err
}

// Err returns the first Append failure, if any — the campaign driver
// checks it once at the end instead of every Append having to abort the
// run.
func (j *Journal) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Scale returns the scale the journal was recorded at.
func (j *Journal) Scale() harness.Scale { return j.scale }

// Len returns the number of journaled runs.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.entries)
}

// Dropped reports how many damaged tail records the load truncated.
func (j *Journal) Dropped() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.dropped
}

// Entries returns a copy of the journaled runs in append order.
func (j *Journal) Entries() []Entry {
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]Entry(nil), j.entries...)
}

// Seed pre-loads h's memo cache with every journaled result and returns
// how many runs the resumed campaign will skip.
func (j *Journal) Seed(h *harness.Harness) int {
	j.mu.Lock()
	entries := append([]Entry(nil), j.entries...)
	j.mu.Unlock()
	for _, e := range entries {
		h.SeedResult(e.Key, e.Result)
	}
	return len(entries)
}

// Attach subscribes the journal to h's freshly-completed runs: every
// memoized success is appended (and flushed to disk) as it finishes, from
// whichever worker goroutine completed it.
func (j *Journal) Attach(h *harness.Harness) {
	h.OnResult = func(key string, _ harness.RunSpec, r *sim.Result) {
		// Append's error is retained in j.Err; one bad disk must not
		// abort the runs themselves.
		_ = j.Append(key, r)
	}
}

// encodeLine serializes one payload as a CRC-protected journal line.
func encodeLine(payload interface{}) ([]byte, error) {
	body, err := json.Marshal(payload)
	if err != nil {
		return nil, err
	}
	line := make([]byte, 0, len(body)+10)
	line = append(line, fmt.Sprintf("%08x ", crc32.Checksum(body, crcTable))...)
	line = append(line, body...)
	line = append(line, '\n')
	return line, nil
}

// checkLine validates one journal line's shape and CRC, returning the
// payload bytes when intact.
func checkLine(line []byte) ([]byte, bool) {
	if len(line) < 10 || line[8] != ' ' {
		return nil, false
	}
	var crc uint32
	if _, err := fmt.Sscanf(string(line[:8]), "%08x", &crc); err != nil {
		return nil, false
	}
	payload := line[9:]
	if crc32.Checksum(payload, crcTable) != crc {
		return nil, false
	}
	return payload, true
}
