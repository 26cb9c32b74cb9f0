package sim

import (
	"errors"
	"strings"
	"testing"

	"github.com/bertisim/berti/internal/cache"
	"github.com/bertisim/berti/internal/fault"
	"github.com/bertisim/berti/internal/trace"
	"github.com/bertisim/berti/internal/vm"
)

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config must validate: %v", err)
	}
	for _, tc := range []struct {
		name   string
		mutate func(*Config)
		field  string
	}{
		{"no cores", func(c *Config) { c.Cores = 0 }, "Cores"},
		{"rob", func(c *Config) { c.Core.ROBSize = 0 }, "Core.ROBSize"},
		{"issue", func(c *Config) { c.Core.IssueWidth = -1 }, "Core.IssueWidth"},
		{"l1d ways", func(c *Config) { c.L1D.Ways = 0 }, "L1D"},
		{"l2 mshrs", func(c *Config) { c.L2.MSHRs = 0 }, "L2"},
		{"llc size", func(c *Config) { c.LLC.SizeBytes = 1000 }, "LLC"},
		{"dram banks", func(c *Config) { c.DRAM.Banks = 0 }, "DRAM.Banks"},
		{"dram row", func(c *Config) { c.DRAM.RowBytes = 32 }, "DRAM.RowBytes"},
		{"dram queues", func(c *Config) { c.DRAM.RQSize = 0 }, "DRAM"},
		{"instructions", func(c *Config) { c.SimInstructions = 0 }, "SimInstructions"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tc.mutate(&cfg)
			err := cfg.Validate()
			var ce *ConfigError
			if !errors.As(err, &ce) {
				t.Fatalf("expected *ConfigError, got %v", err)
			}
			if ce.Field != tc.field {
				t.Fatalf("Field = %q, want %q (%v)", ce.Field, tc.field, err)
			}
		})
	}

	// Nested cache errors keep the inner detail reachable.
	cfg := DefaultConfig()
	cfg.L1D.Ways = 0
	err := cfg.Validate()
	var cce *cache.ConfigError
	if !errors.As(err, &cce) {
		t.Fatalf("cache cause not unwrappable: %v", err)
	}
	cfg = DefaultConfig()
	cfg.MMU.DTLBWays = 0
	var ve *vm.ConfigError
	if !errors.As(cfg.Validate(), &ve) {
		t.Fatalf("vm cause not unwrappable: %v", cfg.Validate())
	}
}

func TestNewRejectsBadInput(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Cores = 0
	if _, err := New(cfg, nil, nil, nil); err == nil {
		t.Fatal("invalid config must be rejected")
	}
	cfg = DefaultConfig()
	cfg.Cores = 2
	_, err := New(cfg, []trace.Reader{trace.NewSliceReader(&trace.Slice{})}, nil, nil)
	var ce *ConfigError
	if !errors.As(err, &ce) || !strings.Contains(err.Error(), "trace reader") {
		t.Fatalf("trace/core count mismatch must be a *ConfigError, got %v", err)
	}
}

func TestStallErrorSnapshot(t *testing.T) {
	e := &StallError{StallCycles: 100, Snapshot: EngineSnapshot{
		Cycle:    12345,
		Retired:  []uint64{10, 20},
		Finished: []bool{false, true},
		Queues:   []cache.QueueSnapshot{{Name: "L1D.0", MSHR: 3, PQ: 1}},
	}}
	msg := e.Error()
	for _, want := range []string{"100 cycles", "cycle=12345", "retired=[10 20]", "L1D.0", "mshr=3"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("stall message %q lacks %q", msg, want)
		}
	}
}

// TestWatchdogFiresOnDeadlock: every fill delayed by ~a trillion cycles
// means no load ever completes, so retirement stops dead and the stall
// watchdog must end the run with a structured *StallError instead of
// spinning forever.
func TestWatchdogFiresOnDeadlock(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WarmupInstructions = 0
	cfg.SimInstructions = 10_000
	tr := strideTrace(20_000, 9, 1) // long strides: misses from the start
	m := MustNew(cfg, []trace.Reader{trace.NewSliceReader(tr)}, nil, nil)
	m.Attach(Options{Fault: &fault.Plan{Kind: fault.DelayFill, Rate: 1, Param: 1 << 40}, Watchdog: 5_000})
	_, err := m.Run()
	var se *StallError
	if !errors.As(err, &se) {
		t.Fatalf("expected *StallError, got %v", err)
	}
	if se.Snapshot.Cycle < 5_000 {
		t.Fatalf("snapshot cycle %d predates the watchdog window", se.Snapshot.Cycle)
	}
}

// TestTraceReadErrorPropagates: a reader failing mid-run must surface as a
// *TraceReadError naming the core, not a panic (the coremodel used to
// panic(err) on this path).
func TestTraceReadErrorPropagates(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WarmupInstructions = 0
	cfg.SimInstructions = 10_000
	m := MustNew(cfg, []trace.Reader{&failingReader{after: 100}}, nil, nil)
	_, err := m.Run()
	var te *TraceReadError
	if !errors.As(err, &te) {
		t.Fatalf("expected *TraceReadError, got %v", err)
	}
	if te.Core != 0 || !errors.Is(err, errBrokenReader) {
		t.Fatalf("error must name the core and keep the cause: %v", err)
	}
}

// failingReader yields a few records then fails with a non-EOF error.
type failingReader struct{ after int }

func (r *failingReader) Next() (trace.Record, error) {
	if r.after <= 0 {
		return trace.Record{}, errBrokenReader
	}
	r.after--
	return trace.Record{IP: 0x400000, Addr: 0x10000, NonMemBefore: 1}, nil
}

var errBrokenReader = errors.New("broken reader")
