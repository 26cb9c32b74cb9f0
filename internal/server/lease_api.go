package server

import (
	"time"

	"github.com/bertisim/berti/internal/campaign"
	"github.com/bertisim/berti/internal/harness"
)

// DefaultLeaseTTL is the lease deadline when Options.LeaseTTL is zero. A
// worker that neither heartbeats nor pushes results for this long is
// presumed dead and its specs are reassigned.
const DefaultLeaseTTL = 60 * time.Second

// DefaultLeaseSpecs is the batch size granted when a lease request leaves
// MaxSpecs zero.
const DefaultLeaseSpecs = 4

// maxLeaseSpecs caps one lease's batch regardless of what the worker asks
// for: smaller batches keep reassignment cheap when a worker dies.
const maxLeaseSpecs = 64

// LeaseRequest is the POST /api/v1/leases body: a worker asking for a
// batch of specs.
type LeaseRequest struct {
	// Worker is the requester's stable identity (registry key; required).
	Worker string `json:"worker"`
	// MaxSpecs bounds the batch (DefaultLeaseSpecs when 0, capped at
	// maxLeaseSpecs).
	MaxSpecs int `json:"max_specs,omitempty"`
}

// LeaseGrant is the lease response. An empty ID means no work is pending
// right now — poll again later.
type LeaseGrant struct {
	SchemaVersion int               `json:"schema_version"`
	ID            string            `json:"id,omitempty"`
	Specs         []harness.RunSpec `json:"specs,omitempty"`
	// Scale names the coordinator's simulation scale; a worker built for a
	// different scale must refuse the grant (its memo keys would collide
	// with differently-sized runs).
	Scale string `json:"scale"`
	// TTLMillis is the lease lifetime; the worker must heartbeat (or push
	// results) within it or the specs are reassigned.
	TTLMillis int64 `json:"ttl_ms"`
	// HeartbeatMillis is the coordinator's suggested heartbeat cadence.
	HeartbeatMillis int64 `json:"heartbeat_ms"`
}

// HeartbeatRequest is the POST /api/v1/leases/{id}/heartbeat body. It
// names only the worker: progress is read from the results it pushes.
// Unknown fields (such as an older worker's "completed") are ignored.
type HeartbeatRequest struct {
	Worker string `json:"worker"`
}

// HeartbeatResponse acknowledges a heartbeat: the lease deadline was
// pushed out DeadlineMillis from now. A 410 response (lease gone) means
// the batch was reassigned — the worker should abandon it.
type HeartbeatResponse struct {
	SchemaVersion  int    `json:"schema_version"`
	State          string `json:"state"`
	DeadlineMillis int64  `json:"deadline_ms"`
}

// RunFailure is one failed spec in a results push (and in worker-side
// reporting): the memo key plus the harness's error text.
type RunFailure struct {
	Key   string `json:"key"`
	Error string `json:"error"`
}

// ResultsRequest is the POST /api/v1/leases/{id}/results body. Entries
// reuse the result store's {key, result} shape. The push is idempotent: every
// entry is accepted no matter the lease's fate, and re-completions are
// deduped, never double-counted.
type ResultsRequest struct {
	Worker   string           `json:"worker"`
	Entries  []campaign.Entry `json:"entries,omitempty"`
	Failures []RunFailure     `json:"failures,omitempty"`
}

// ResultsResponse itemises a push's fate: Accepted counts first
// completions, Duplicates re-completions (deduped), Unknown keys the
// coordinator never issued, Failed recorded failures.
type ResultsResponse struct {
	SchemaVersion int `json:"schema_version"`
	Accepted      int `json:"accepted"`
	Duplicates    int `json:"duplicates"`
	Unknown       int `json:"unknown"`
	Failed        int `json:"failed"`
}

// WorkerStatus is one registry row in the GET /api/v1/workers response.
type WorkerStatus struct {
	Worker string `json:"worker"`
	// Live reports whether the worker was seen within the lease TTL. The
	// daemon's in-process workers are always live.
	Live              bool   `json:"live"`
	LastSeenAgoMillis int64  `json:"last_seen_ago_ms"`
	LeasesAcquired    uint64 `json:"leases_acquired"`
	SpecsCompleted    uint64 `json:"specs_completed"`
}
