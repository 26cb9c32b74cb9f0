package campaign

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/bertisim/berti/internal/harness"
	"github.com/bertisim/berti/internal/sim"
)

// testScale keeps journal tests fast; real simulations are not needed to
// exercise the persistence layer.
var testScale = harness.Scale{Name: "journal-test", MemRecords: 1000, WarmupInstr: 100, SimInstr: 200, Mixes: 1}

// fakeResult builds a distinguishable result without running a simulation.
func fakeResult(ipc float64) *sim.Result {
	cfg := sim.DefaultConfig()
	return &sim.Result{
		Config: cfg,
		Cores:  []sim.CoreResult{{IPC: ipc}},
		Cycles: uint64(ipc * 1000),
	}
}

func journalPath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "campaign.journal")
}

// TestJournalRoundTrip: entries appended to a journal must come back
// identical (keys, order, and full result payloads) after a reopen.
func TestJournalRoundTrip(t *testing.T) {
	path := journalPath(t)
	j, err := Create(path, testScale)
	if err != nil {
		t.Fatal(err)
	}
	want := []Entry{
		{Key: "w=a|l1=berti", Result: fakeResult(1.25)},
		{Key: "w=b|l1=ipcp", Result: fakeResult(0.75)},
		{Key: "w=c|l1=", Result: fakeResult(2)},
	}
	for _, e := range want {
		if err := j.Append(e.Key, e.Result); err != nil {
			t.Fatal(err)
		}
	}
	// Duplicate keys are skipped, not re-journaled.
	if err := j.Append(want[0].Key, fakeResult(9)); err != nil {
		t.Fatal(err)
	}
	re, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if re.Scale() != testScale {
		t.Fatalf("scale round trip: got %+v want %+v", re.Scale(), testScale)
	}
	got := re.Entries()
	if len(got) != len(want) {
		t.Fatalf("got %d entries, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Key != want[i].Key {
			t.Fatalf("entry %d key %q, want %q", i, got[i].Key, want[i].Key)
		}
		if !reflect.DeepEqual(got[i].Result.Cores, want[i].Result.Cores) {
			t.Fatalf("entry %d result changed across the round trip", i)
		}
	}
	if re.Dropped() != 0 {
		t.Fatalf("clean journal reported %d dropped records", re.Dropped())
	}
}

// TestJournalCorruptTailTruncated: damage to the last record must cost
// exactly that record — the prefix survives and the file is repaired.
func TestJournalCorruptTailTruncated(t *testing.T) {
	path := journalPath(t)
	j, err := Create(path, testScale)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"k1", "k2", "k3"} {
		if err := j.Append(k, fakeResult(1)); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	for name, mutate := range map[string]func([]byte) []byte{
		// A torn write: the final record is half-missing.
		"torn-tail": func(b []byte) []byte { return b[:len(b)-20] },
		// A flipped bit inside the last record's payload.
		"bit-flip": func(b []byte) []byte {
			mut := append([]byte(nil), b...)
			mut[len(mut)-10] ^= 0x40
			return mut
		},
		// Garbage appended after the valid records.
		"trailing-garbage": func(b []byte) []byte { return append(append([]byte(nil), b...), "deadbeef not-json\n"...) },
	} {
		t.Run(name, func(t *testing.T) {
			if err := os.WriteFile(path, mutate(data), 0o644); err != nil {
				t.Fatal(err)
			}
			re, err := Open(path)
			if err != nil {
				t.Fatalf("tail damage must not fail the load: %v", err)
			}
			if re.Dropped() == 0 {
				t.Fatal("damaged record must be counted as dropped")
			}
			got := re.Entries()
			if len(got) < 2 || got[0].Key != "k1" || got[1].Key != "k2" {
				t.Fatalf("valid prefix must survive, got %d entries", len(got))
			}
			// The load repairs the file: a second open is clean.
			re2, err := Open(path)
			if err != nil {
				t.Fatal(err)
			}
			if re2.Dropped() != 0 || len(re2.Entries()) != len(got) {
				t.Fatalf("repair must persist: dropped=%d entries=%d want 0/%d",
					re2.Dropped(), len(re2.Entries()), len(got))
			}
			// And the journal stays appendable after repair.
			if err := re2.Append("k-after-repair", fakeResult(3)); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestJournalMidCorruptionDropsSuffix: damage in the middle invalidates
// everything after it (entries past the tear cannot be trusted to be a
// consistent append sequence).
func TestJournalMidCorruptionDropsSuffix(t *testing.T) {
	path := journalPath(t)
	j, err := Create(path, testScale)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"k1", "k2", "k3"} {
		if err := j.Append(k, fakeResult(1)); err != nil {
			t.Fatal(err)
		}
	}
	data, _ := os.ReadFile(path)
	lines := 0
	for i, b := range data {
		if b != '\n' {
			continue
		}
		lines++
		if lines == 2 { // flip a bit inside record k2 (line 3 = k2; line 2 = k1)
			data[i+12] ^= 1
			break
		}
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	re, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	got := re.Entries()
	if len(got) != 1 || got[0].Key != "k1" {
		t.Fatalf("mid-journal damage must keep only the prefix, got %+v", got)
	}
}

// TestJournalHeaderErrors: a damaged or foreign first record is fatal (the
// entries cannot be validated against an untrusted header).
func TestJournalHeaderErrors(t *testing.T) {
	path := journalPath(t)
	for name, content := range map[string]string{
		"empty":       "",
		"not-journal": "some random file contents\n",
		"bad-magic":   string(mustLine(t, header{Magic: "other", Version: Version, Scale: testScale})),
		"bad-version": string(mustLine(t, header{Magic: Magic, Version: 99, Scale: testScale})),
	} {
		t.Run(name, func(t *testing.T) {
			if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := Open(path)
			var he *HeaderError
			if !errors.As(err, &he) {
				t.Fatalf("expected *HeaderError, got %v", err)
			}
		})
	}
}

// TestOpenOrCreate: missing file creates, matching scale resumes, and a
// scale mismatch is the typed error resume must refuse on.
func TestOpenOrCreate(t *testing.T) {
	path := journalPath(t)
	j, err := OpenOrCreate(path, testScale)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append("k1", fakeResult(1)); err != nil {
		t.Fatal(err)
	}
	re, err := OpenOrCreate(path, testScale)
	if err != nil {
		t.Fatal(err)
	}
	if re.Len() != 1 {
		t.Fatalf("resume lost entries: %d", re.Len())
	}
	other := testScale
	other.MemRecords *= 2
	_, err = OpenOrCreate(path, other)
	var sm *ScaleMismatchError
	if !errors.As(err, &sm) {
		t.Fatalf("expected *ScaleMismatchError, got %v", err)
	}
}

// TestJournalSeedsHarness: seeded results must be memo hits — the harness
// returns them without executing, and OnResult must not re-fire for them.
func TestJournalSeedsHarness(t *testing.T) {
	path := journalPath(t)
	j, err := Create(path, testScale)
	if err != nil {
		t.Fatal(err)
	}
	spec := harness.RunSpec{Workload: "not-a-real-workload", L1DPf: "berti"}
	want := fakeResult(1.5)
	if err := j.Append(spec.Key(), want); err != nil {
		t.Fatal(err)
	}

	h := harness.New(testScale)
	j.Attach(h)
	if n := j.Seed(h); n != 1 {
		t.Fatalf("Seed reported %d, want 1", n)
	}
	// The workload name does not exist, so only a memo hit can succeed.
	got, err := h.RunContext(context.Background(), spec)
	if err != nil {
		t.Fatalf("seeded spec must be a memo hit: %v", err)
	}
	if got.IPC() != want.IPC() {
		t.Fatalf("seeded result IPC %v, want %v", got.IPC(), want.IPC())
	}
	if j.Len() != 1 {
		t.Fatalf("memo hits must not re-journal: %d entries", j.Len())
	}
}

// mustLine encodes a payload as a valid CRC-framed journal line.
func mustLine(t *testing.T, payload interface{}) []byte {
	t.Helper()
	line, err := encodeLine(payload)
	if err != nil {
		t.Fatal(err)
	}
	return line
}
