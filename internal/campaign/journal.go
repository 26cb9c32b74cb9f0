// Package campaign makes long multi-experiment evaluations crash-safe. A
// Journal is an append-only, CRC-protected JSONL file that persists each
// completed run's result (keyed by the harness memo key) the moment it
// finishes, written atomically so a crash, OOM-kill, or Ctrl-C never
// leaves a torn file. A re-invoked campaign loads the journal, pre-seeds
// the harness memo cache, and re-executes only the unfinished runs; a
// corrupt tail record is truncated and re-run rather than failing the
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
	"os"
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

// syncWrites fsyncs every journal write before the rename. Always on in
// production; the fuzz harness disables it (thousands of throwaway
// journals per second do not need durability).
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
	buf     []byte // the full serialized journal (header + valid records)
	entries []Entry
	byKey   map[string]int // key -> index in entries
	dropped int            // records lost to tail truncation at load
	err     error          // first persistent write failure
}

// Create starts a fresh journal at path, truncating any existing file, and
// persists the header record immediately.
func Create(path string, scale harness.Scale) (*Journal, error) {
	j := &Journal{path: path, scale: scale, byKey: map[string]int{}}
	line, err := encodeLine(header{Magic: Magic, Version: Version, Scale: scale})
	if err != nil {
		return nil, err
	}
	j.buf = line
	if err := j.flushLocked(); err != nil {
		return nil, err
	}
	return j, nil
}

// Open loads an existing journal, validating every record's CRC and shape.
// The first damaged record and everything after it are dropped and the
// file is rewritten to the valid prefix (atomically), so a torn tail from
// a crash costs at most the interrupted run. A missing file is an
// *os.PathError; a damaged first record is a *HeaderError.
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
	j.buf = valid
	if len(valid) != len(data) {
		// Truncate the damaged tail on disk so the next load is clean.
		if err := j.flushLocked(); err != nil {
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

// Append persists one completed run. Already-journaled keys are skipped
// (a resumed campaign may re-complete a memoized run). The journal is
// rewritten to a temp file and renamed over the old one, so the on-disk
// file is always a complete, valid journal — a crash mid-Append loses only
// the entry being written.
func (j *Journal) Append(key string, r *sim.Result) error {
	if r == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, ok := j.byKey[key]; ok {
		return nil
	}
	line, err := encodeLine(Entry{Key: key, Result: r})
	if err != nil {
		j.setErr(err)
		return err
	}
	j.addEntry(Entry{Key: key, Result: r})
	j.buf = append(j.buf, line...)
	if err := j.flushLocked(); err != nil {
		j.setErr(err)
		return err
	}
	return nil
}

// flushLocked writes the serialized journal atomically: temp file in the
// same directory, fsync, rename. Callers hold j.mu (or own j exclusively).
func (j *Journal) flushLocked() error {
	tmp := j.path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err = f.Write(j.buf); err == nil && syncWrites {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, j.path)
}

// setErr keeps the first persistent write failure for Err.
func (j *Journal) setErr(err error) {
	if j.err == nil {
		j.err = err
	}
}

// Err returns the first write failure, if any — the campaign driver checks
// it once at the end instead of every Append having to abort the run.
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
