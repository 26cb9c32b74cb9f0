package server

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"

	"github.com/bertisim/berti/internal/campaign"
	"github.com/bertisim/berti/internal/harness"
)

// ManifestSchemaVersion governs the on-disk manifest shape.
const ManifestSchemaVersion = 1

// ManifestExt is the manifest file suffix in DataDir/campaigns.
const ManifestExt = ".manifest.json"

// Manifest records what a campaign IS — its full spec list. What has
// FINISHED lives in the result store, shared by every campaign at the same
// scale, so a restarted daemon reconstructs exact progress from the two:
// each manifest spec the store holds is done, the rest re-enter the queue.
type Manifest struct {
	SchemaVersion int               `json:"schema_version"`
	ID            string            `json:"id"`
	Name          string            `json:"name,omitempty"`
	Scale         harness.Scale     `json:"scale"`
	Specs         []harness.RunSpec `json:"specs"`
}

// CampaignID derives the deterministic campaign identifier: a SHA-256 over
// the scale and the sorted, deduplicated run keys, truncated to 16 hex
// characters. Identical submissions — from any client, in any spec order —
// map to the same campaign, which is what lets the server hand a second
// client the first client's in-flight campaign instead of re-running it.
func CampaignID(scale harness.Scale, specs []harness.RunSpec) string {
	keys := make([]string, len(specs))
	for i, s := range specs {
		keys[i] = s.Key()
	}
	sort.Strings(keys)
	h := sha256.New()
	h.Write([]byte(scaleIdentity(scale)))
	h.Write([]byte{0})
	for _, k := range keys {
		h.Write([]byte(k))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// scaleIdentity is the part of a scale that decides a run's result: memo
// keys do not encode it, so campaign IDs and store directories do.
func scaleIdentity(scale harness.Scale) string {
	return fmt.Sprintf("%s|%d|%d|%d", scale.Name, scale.MemRecords, scale.WarmupInstr, scale.SimInstr)
}

// scaleDir names the result store directory for one scale: 16 hex
// characters of the SHA-256 of scaleIdentity. Results at different scales
// never share a directory, so a daemon cannot report another scale's run.
func scaleDir(scale harness.Scale) string {
	sum := sha256.Sum256([]byte(scaleIdentity(scale)))
	return hex.EncodeToString(sum[:])[:16]
}

// dedupeSpecs drops repeated keys, keeping first occurrence order.
func dedupeSpecs(specs []harness.RunSpec) []harness.RunSpec {
	seen := make(map[string]bool, len(specs))
	out := make([]harness.RunSpec, 0, len(specs))
	for _, s := range specs {
		k := s.Key()
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, s)
	}
	return out
}

// writeManifest persists m durably and atomically through
// campaign.WriteFileAtomic, like every other file the daemon owns.
func writeManifest(path string, m *Manifest) error {
	return campaign.WriteFileAtomic(path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", " ")
		return enc.Encode(m)
	})
}

// readManifest loads and sanity-checks a manifest.
func readManifest(path string) (*Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("decoding: %w", err)
	}
	if m.SchemaVersion != ManifestSchemaVersion || m.ID == "" || len(m.Specs) == 0 {
		return nil, errors.New("missing or unsupported fields")
	}
	return &m, nil
}

// failedRun is one failed spec in a campaign's status and report.
type failedRun struct {
	Key   string `json:"key"`
	Error string `json:"error"`
}

// campaignState is one submitted campaign's identity. Its progress is not
// kept here: status and buildReport read each key's outcome from the
// harness memo, the one place a daemon outcome lands (acceptEntry,
// acceptFailure, or enqueue's seeding from the result store).
type campaignState struct {
	id    string
	name  string
	specs []harness.RunSpec
	keys  []string // memo keys of every spec, sorted
}

func newCampaignState(id, name string, specs []harness.RunSpec) *campaignState {
	keys := make([]string, len(specs))
	for i, s := range specs {
		keys[i] = s.Key()
	}
	sort.Strings(keys)
	return &campaignState{id: id, name: name, specs: specs, keys: keys}
}

// Campaign states reported by the status endpoint.
const (
	StateRunning = "running" // work queued or in flight
	StateDone    = "done"    // every spec completed
	StateFailed  = "failed"  // finished, but some specs failed
)

// outcomes reads c's finished keys from the memo, in key order: the runs
// that completed and the ones that failed. A key with neither (queued, in
// flight, or cancelled by a drain) is still running.
func (s *Server) outcomes(c *campaignState) (runs []campaign.Entry, failed []failedRun) {
	for _, k := range c.keys {
		if r, ok := s.h.ResultFor(k); ok {
			runs = append(runs, campaign.Entry{Key: k, Result: r})
		} else if err := s.h.FailureFor(k); err != nil {
			failed = append(failed, failedRun{Key: k, Error: err.Error()})
		}
	}
	return runs, failed
}

// status assembles the externally-visible progress snapshot. A key's store
// error is recorded before its result is memoized, so a status that counts
// the key complete also carries the error.
func (s *Server) status(c *campaignState) *CampaignStatus {
	runs, failed := s.outcomes(c)
	st := &CampaignStatus{
		SchemaVersion: APISchemaVersion,
		ID:            c.id,
		Name:          c.name,
		State:         StateRunning,
		Total:         len(c.keys),
		Completed:     len(runs),
		Failed:        len(failed),
	}
	s.mu.Lock()
	for _, k := range c.keys {
		if msg, ok := s.storeErrs[k]; ok {
			st.StoreError = msg
			break
		}
	}
	s.mu.Unlock()
	switch {
	case len(runs)+len(failed) < len(c.keys):
	case len(failed) > 0:
		st.State = StateFailed
	default:
		st.State = StateDone
	}
	return st
}
