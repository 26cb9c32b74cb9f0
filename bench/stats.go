package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"github.com/bertisim/berti/internal/sim"
)

// metric is one reported number. N is how many samples a timing's median
// (or percentile) was taken over; 0 for exact counts and single readings.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median matches Python's statistics.median.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles matches Python's statistics.quantiles(xs, n=4) (the default
// "exclusive" method), the rule the regression check uses.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	if ld == 0 {
		return 0, 0, 0
	}
	if ld == 1 {
		return s[0], s[0], s[0]
	}
	var q [3]float64
	m := ld + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = min(max(j, 1), ld-1)
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}

// percentile is the nearest-rank percentile (p in (0, 100]).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	return s[min(max(rank, 1), len(s))-1]
}

// digest fingerprints a result: the first 16 hex digits of the SHA-256 of
// its JSON encoding ("" for a missing result).
func digest(r *sim.Result) string {
	if r == nil {
		return ""
	}
	b, err := json.Marshal(r)
	if err != nil {
		return "unencodable: " + err.Error()
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

func digests(rs []*sim.Result) []string {
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = digest(r)
	}
	return out
}

// checks counts output checks that failed and says which.
type checks struct {
	mismatches int
	notes      []string
}

func (c *checks) fail(format string, args ...any) {
	c.mismatches++
	c.notes = append(c.notes, fmt.Sprintf(format, args...))
}

// same compares two per-spec digest lists; one mismatch per differing
// spec. Missing results are failures, counted elsewhere, not mismatches.
func (c *checks) same(what string, want, got []string) {
	if len(want) != len(got) {
		c.fail("%s: %d results, want %d", what, len(got), len(want))
		return
	}
	for i := range want {
		if want[i] != "" && got[i] != "" && want[i] != got[i] {
			c.fail("%s: spec %d digest %s, want %s", what, i, got[i], want[i])
		}
	}
}

// sane checks what every result must satisfy whatever the model: each core
// measured at least the requested instructions over a positive cycle count.
func (c *checks) sane(what string, rs []*sim.Result, measured uint64) {
	for i, r := range rs {
		if r == nil {
			continue
		}
		for k, core := range r.Cores {
			if core.Core.Instructions < measured || r.Cycles == 0 {
				c.fail("%s: spec %d core %d measured %d instructions in %d cycles, want >= %d",
					what, i, k, core.Core.Instructions, r.Cycles, measured)
			}
		}
	}
}
