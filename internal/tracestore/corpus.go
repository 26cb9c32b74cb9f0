package tracestore

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"github.com/bertisim/berti/internal/trace"
)

// Key identifies one generated trace: the generation is deterministic in
// these parameters, so hashing them addresses the content.
type Key struct {
	// Workload is the registry name of the generator.
	Workload string
	// Records is the requested memory-record count.
	Records int
	// Seed is the generation seed.
	Seed int64
}

// Corpus is an on-disk cache of generated workload traces in the v2
// container format. Files are content-addressed by generation parameters
// (plus the format version, so a format bump invalidates cleanly), written
// atomically via temp-file + rename, and regenerated transparently when
// missing or when Open rejects them.
type Corpus struct {
	dir string
	// gen serializes cache misses so concurrent runs of the same spec
	// generate a trace once instead of racing (both outcomes would be
	// valid — rename is atomic — but generation is the expensive part).
	gen sync.Mutex
}

// NewCorpus opens (creating if needed) a corpus cache rooted at dir.
func NewCorpus(dir string) (*Corpus, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &Corpus{dir: dir}, nil
}

// Path returns the cache file path for a key. The human-readable workload
// prefix is cosmetic; the hash alone addresses the content.
func (c *Corpus) Path(k Key) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("berti-trace-v%d|%s|%d|%d", FormatVersion, k.Workload, k.Records, k.Seed)))
	name := sanitize(k.Workload)
	if name == "" {
		name = "trace"
	}
	return filepath.Join(c.dir, fmt.Sprintf("%s-%s.btr2", name, hex.EncodeToString(sum[:8])))
}

// sanitize keeps the workload prefix filesystem-safe.
func sanitize(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			return r
		default:
			return '_'
		}
	}, s)
}

// Ensure opens the cached container for k, invoking gen and writing the
// cache entry on a miss. Only an entry that fails Open (a truncated file,
// a damaged footer, index or trailer) is regenerated rather than surfaced.
// Open does not decode chunk payloads, so an entry whose payload is damaged
// behind a valid footer is returned, and every read of that chunk fails
// with a *FormatError until the file is deleted.
func (c *Corpus) Ensure(k Key, gen func() *trace.Slice) (*File, error) {
	path := c.Path(k)
	if f, err := Open(path); err == nil {
		return f, nil
	}
	c.gen.Lock()
	defer c.gen.Unlock()
	// Another goroutine may have filled the entry while we waited.
	if f, err := Open(path); err == nil {
		return f, nil
	}
	if err := c.write(path, gen(), k.Workload); err != nil {
		return nil, err
	}
	return Open(path)
}

// write persists a trace atomically: temp file in the same directory,
// error-checked flush/sync/close, then rename over the final path.
func (c *Corpus) write(path string, s *trace.Slice, workload string) (err error) {
	tmp, err := os.CreateTemp(c.dir, ".tmp-*.btr2")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	bw := bufio.NewWriterSize(tmp, 1<<20)
	if err = Write(bw, s, Meta{Workload: workload}); err != nil {
		return fmt.Errorf("tracestore: corpus write %s: %w", path, err)
	}
	if err = bw.Flush(); err != nil {
		return fmt.Errorf("tracestore: corpus flush %s: %w", path, err)
	}
	if err = tmp.Sync(); err != nil {
		return fmt.Errorf("tracestore: corpus sync %s: %w", path, err)
	}
	if err = tmp.Close(); err != nil {
		return fmt.Errorf("tracestore: corpus close %s: %w", path, err)
	}
	if err = os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}
