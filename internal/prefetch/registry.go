package prefetch

import (
	"github.com/bertisim/berti/internal/cache"
	"github.com/bertisim/berti/internal/core"
	"github.com/bertisim/berti/internal/prefetch/bingo"
	"github.com/bertisim/berti/internal/prefetch/bop"
	"github.com/bertisim/berti/internal/prefetch/ipcp"
	"github.com/bertisim/berti/internal/prefetch/ipstride"
	"github.com/bertisim/berti/internal/prefetch/misb"
	"github.com/bertisim/berti/internal/prefetch/mlop"
	"github.com/bertisim/berti/internal/prefetch/nextline"
	"github.com/bertisim/berti/internal/prefetch/pythia"
	"github.com/bertisim/berti/internal/prefetch/spp"
	"github.com/bertisim/berti/internal/prefetch/streamer"
	"github.com/bertisim/berti/internal/prefetch/vldp"
)

// Factory builds a fresh prefetcher instance (one per core per run).
type Factory func() cache.Prefetcher

// Level says where a registered prefetcher is designed to sit.
type Level int

// Deployment levels.
const (
	AtL1D Level = iota
	AtL2
)

// Entry describes a registered prefetcher design.
type Entry struct {
	Name    string
	Level   Level
	New     Factory
	Comment string
}

// registry lists every prefetcher design (Berti and the baselines), sorted
// by level then name.
var registry = []Entry{
	{Name: "berti", Level: AtL1D, Comment: "the paper's contribution (2.55 KB)",
		New: func() cache.Prefetcher { return core.New(core.DefaultConfig()) }},
	{Name: "berti-dpc3", Level: AtL1D, Comment: "per-page ancestor (Ros, DPC-3 2019)",
		New: func() cache.Prefetcher { return core.New(core.DPC3Config()) }},
	{Name: "bop", Level: AtL1D, Comment: "best-offset prefetching (DPC-2 winner)",
		New: func() cache.Prefetcher { return bop.New(bop.DefaultConfig()) }},
	{Name: "ip-stride", Level: AtL1D, Comment: "Table II baseline: 24-entry FA per-IP stride",
		New: func() cache.Prefetcher { return ipstride.New(ipstride.DefaultConfig()) }},
	{Name: "ipcp", Level: AtL1D, Comment: "IP classifier bouquet (DPC-3 winner)",
		New: func() cache.Prefetcher { return ipcp.New(ipcp.DefaultConfig()) }},
	{Name: "mlop", Level: AtL1D, Comment: "multi-lookahead offset (DPC-3 3rd)",
		New: func() cache.Prefetcher { return mlop.New(mlop.DefaultConfig()) }},
	{Name: "next-line", Level: AtL1D, Comment: "degree-1 next line",
		New: func() cache.Prefetcher { return nextline.New(1) }},
	{Name: "bingo", Level: AtL2, Comment: "region footprint prefetcher",
		New: func() cache.Prefetcher { return bingo.New(bingo.DefaultConfig()) }},
	{Name: "ipcp-l2", Level: AtL2, Comment: "IPCP deployed at L2",
		New: func() cache.Prefetcher { return ipcp.New(ipcp.L2Config()) }},
	{Name: "misb", Level: AtL2, Comment: "managed irregular stream buffer (temporal)",
		New: func() cache.Prefetcher { return misb.New(misb.DefaultConfig()) }},
	{Name: "pythia", Level: AtL2, Comment: "RL prefetcher (simplified Pythia)",
		New: func() cache.Prefetcher { return pythia.New(pythia.DefaultConfig()) }},
	{Name: "spp", Level: AtL2, Comment: "signature path prefetching",
		New: func() cache.Prefetcher { return spp.New(spp.DefaultConfig()) }},
	{Name: "spp-ppf", Level: AtL2, Comment: "SPP with perceptron filter",
		New: func() cache.Prefetcher { return spp.New(spp.PPFConfig()) }},
	{Name: "streamer", Level: AtL2, Comment: "Intel-style L2 stream prefetcher",
		New: func() cache.Prefetcher { return streamer.New(streamer.DefaultConfig()) }},
	{Name: "vldp", Level: AtL2, Comment: "variable length delta prefetching",
		New: func() cache.Prefetcher { return vldp.New(vldp.DefaultConfig()) }},
}

// ByName returns a registered design.
func ByName(name string) (Entry, bool) {
	for _, e := range registry {
		if e.Name == name {
			return e, true
		}
	}
	return Entry{}, false
}

// All returns every registered design, sorted by level then name.
func All() []Entry { return append([]Entry(nil), registry...) }
