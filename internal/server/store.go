// Package server turns the simulator's campaign machinery into a
// long-running multi-user service: an HTTP/JSON API to submit experiment
// specs, a lease pool feeding in-process and remote workers, and
// content-addressed result storage keyed by the harness memo key so
// identical specs dedupe across campaigns, across clients, and across
// daemon restarts. A campaign's manifest plus the result store is all a
// restarted daemon needs to resume it. See DESIGN.md §14.
package server

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"github.com/bertisim/berti/internal/campaign"
	"github.com/bertisim/berti/internal/sim"
)

// Store is the content-addressed result store: one JSON file per completed
// run, named by the SHA-256 of the harness memo key (keys contain
// filesystem-hostile characters; the hash is the address, the stored key
// is the proof). Writes are durable and atomic (temp file, fsync, rename)
// and idempotent — concurrent Puts of the same key write identical bytes,
// so whichever rename lands last changes nothing. The daemon keeps one
// store per scale (memo keys do not encode the scale), and it is the
// daemon's only durable copy of each result. All methods are safe for
// concurrent use from harness workers.
type Store struct {
	dir string
}

// NewStore opens (creating if needed) a result store rooted at dir.
func NewStore(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("server: result store: %w", err)
	}
	return &Store{dir: dir}, nil
}

// path maps a memo key to its content address.
func (s *Store) path(key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(s.dir, hex.EncodeToString(sum[:])+".json")
}

// Put persists one completed run. Existing entries are left untouched (the
// content address already holds this result).
func (s *Store) Put(key string, r *sim.Result) error {
	if r == nil {
		return nil
	}
	path := s.path(key)
	if _, err := os.Stat(path); err == nil {
		return nil
	}
	body, err := json.Marshal(campaign.Entry{Key: key, Result: r})
	if err != nil {
		return fmt.Errorf("server: result store: encode %q: %w", key, err)
	}
	tmp, err := os.CreateTemp(s.dir, ".put-*")
	if err != nil {
		return fmt.Errorf("server: result store: %w", err)
	}
	_, werr := tmp.Write(body)
	if werr == nil {
		werr = tmp.Sync()
	}
	if cerr := tmp.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("server: result store: write %q: %w", key, werr)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("server: result store: %w", err)
	}
	return nil
}

// Get loads the stored result for key. A missing, unreadable, or damaged
// entry (including a hash collision's mismatched key) reports !ok and the
// run re-executes: losing an entry costs a re-run, never a wrong result.
func (s *Store) Get(key string) (*sim.Result, bool) {
	data, err := os.ReadFile(s.path(key))
	if err != nil {
		return nil, false
	}
	var e campaign.Entry
	if json.Unmarshal(data, &e) != nil || e.Key != key || e.Result == nil {
		return nil, false
	}
	return e.Result, true
}

// Len counts the stored results (a startup log line, not a hot path).
func (s *Store) Len() int {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return 0
	}
	n := 0
	for _, de := range entries {
		if !de.IsDir() && filepath.Ext(de.Name()) == ".json" {
			n++
		}
	}
	return n
}
