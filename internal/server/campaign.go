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
	"sync"

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

// campaignState is one submitted campaign's in-memory progress. The
// counters move per key (noteKeyDone, noteKeyFailed), fed by enqueue and
// by the pool's completion paths, acceptEntry and acceptFailure.
type campaignState struct {
	id    string
	name  string
	specs []harness.RunSpec
	keys  map[string]bool // memo keys of every spec (completion fan-out filter)

	mu        sync.Mutex
	remaining int // specs not yet completed or failed (cancelled stay remaining)
	completed int
	doneK     map[string]bool // keys already counted via noteKeyDone/noteKeyFailed
	failed    []failedRun
	storeErr  string // first result-store write failure for one of keys
	finished  bool
	done      chan struct{}          // closed when remaining hits zero
	subs      map[chan struct{}]bool // stream subscribers poked on every change
}

// newCampaignState starts with everything remaining: per-key completions
// (an accept path, or enqueue's already-done seeding) may race campaign
// registration, and a pessimistic start means a completion arriving
// before enqueue runs simply decrements early instead of corrupting
// counters that have not been assigned yet.
func newCampaignState(id, name string, specs []harness.RunSpec) *campaignState {
	keys := make(map[string]bool, len(specs))
	for _, s := range specs {
		keys[s.Key()] = true
	}
	return &campaignState{
		id:        id,
		name:      name,
		specs:     specs,
		keys:      keys,
		remaining: len(keys),
		doneK:     map[string]bool{},
		done:      make(chan struct{}),
		subs:      map[chan struct{}]bool{},
	}
}

// noteKeyDone counts one spec complete, exactly once per key no matter
// how many paths report it (accept path, enqueue seeding, duplicate
// worker): the done set is the dedup.
func (c *campaignState) noteKeyDone(key string) {
	c.mu.Lock()
	if c.doneK[key] {
		c.mu.Unlock()
		return
	}
	c.doneK[key] = true
	c.completed++
	c.remaining--
	c.maybeFinishLocked()
	c.notifyLocked()
	c.mu.Unlock()
}

// noteKeyFailed counts one spec failed, with the same per-key dedup.
func (c *campaignState) noteKeyFailed(key, msg string) {
	c.mu.Lock()
	if c.doneK[key] {
		c.mu.Unlock()
		return
	}
	c.doneK[key] = true
	c.failed = append(c.failed, failedRun{Key: key, Error: msg})
	c.remaining--
	c.maybeFinishLocked()
	c.notifyLocked()
	c.mu.Unlock()
}

// noteStoreErr keeps the first result-store write failure for the status
// document. Callers note it before the key's noteKeyDone, so the terminal
// status already carries it.
func (c *campaignState) noteStoreErr(err error) {
	c.mu.Lock()
	if c.storeErr == "" {
		c.storeErr = err.Error()
	}
	c.mu.Unlock()
}

// maybeFinishLocked closes done exactly once when no work remains.
func (c *campaignState) maybeFinishLocked() {
	if c.remaining <= 0 && !c.finished {
		c.finished = true
		close(c.done)
	}
}

// notifyLocked pokes every stream subscriber without blocking.
func (c *campaignState) notifyLocked() {
	for ch := range c.subs {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
}

// subscribe registers a progress listener; call the returned cancel to
// drop it.
func (c *campaignState) subscribe() (<-chan struct{}, func()) {
	ch := make(chan struct{}, 1)
	c.mu.Lock()
	c.subs[ch] = true
	c.mu.Unlock()
	return ch, func() {
		c.mu.Lock()
		delete(c.subs, ch)
		c.mu.Unlock()
	}
}

// Campaign states reported by the status endpoint.
const (
	StateRunning = "running" // work queued or in flight
	StateDone    = "done"    // every spec completed
	StateFailed  = "failed"  // finished, but some specs failed
)

// status assembles the externally-visible progress snapshot.
func (c *campaignState) status() *CampaignStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := &CampaignStatus{
		SchemaVersion: APISchemaVersion,
		ID:            c.id,
		Name:          c.name,
		State:         StateRunning,
		Total:         len(c.specs),
		Completed:     c.completed,
		Failed:        len(c.failed),
		StoreError:    c.storeErr,
	}
	if c.finished {
		st.State = StateDone
		if len(c.failed) > 0 {
			st.State = StateFailed
		}
	}
	return st
}
