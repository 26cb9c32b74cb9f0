package cli

import (
	"flag"
	"io"
	"os"
	"runtime"
	"syscall"
	"testing"
	"time"

	"github.com/bertisim/berti/internal/harness"
)

func TestRunFlags(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want func(*harness.Harness) bool
	}{
		{"defaults", nil, func(h *harness.Harness) bool {
			return h.Workers == runtime.NumCPU() && h.CorpusDir == "" && !h.EnableChecks && h.RunTimeout == 0
		}},
		{"workers", []string{"-workers", "3"}, func(h *harness.Harness) bool { return h.Workers == 3 }},
		{"j is an alias", []string{"-j", "5"}, func(h *harness.Harness) bool { return h.Workers == 5 }},
		{"j 0 is NumCPU", []string{"-j", "7", "-j", "0"}, func(h *harness.Harness) bool { return h.Workers == runtime.NumCPU() }},
		{"corpus-dir", []string{"-corpus-dir", "/tmp/corpus"}, func(h *harness.Harness) bool { return h.CorpusDir == "/tmp/corpus" }},
		{"check", []string{"-check"}, func(h *harness.Harness) bool { return h.EnableChecks }},
		{"run-timeout", []string{"-run-timeout", "90s"}, func(h *harness.Harness) bool { return h.RunTimeout == 90*time.Second }},
		{"negative run-timeout", []string{"-run-timeout", "-1s"}, func(h *harness.Harness) bool { return h.RunTimeout == -time.Second }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			h := harness.New(harness.ScaleQuick)
			fs := flag.NewFlagSet("test", flag.ContinueOnError)
			RunFlags(fs, h)
			if err := fs.Parse(c.args); err != nil {
				t.Fatal(err)
			}
			if !c.want(h) {
				t.Fatalf("%v: Workers=%d CorpusDir=%q EnableChecks=%v RunTimeout=%v",
					c.args, h.Workers, h.CorpusDir, h.EnableChecks, h.RunTimeout)
			}
		})
	}
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	RunFlags(fs, harness.New(harness.ScaleQuick))
	if err := fs.Parse([]string{"-j", "many"}); err == nil {
		t.Fatal("-j many parsed")
	}
}

// TestOnInterruptFirstSignal: the first SIGINT reaches first, not the
// default handler, and stop can be called twice.
func TestOnInterruptFirstSignal(t *testing.T) {
	got := make(chan os.Signal, 1)
	stop := OnInterrupt(func(sig os.Signal) { got <- sig })
	defer stop()
	if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case sig := <-got:
		if sig != os.Interrupt {
			t.Fatalf("first got %v, want %v", sig, os.Interrupt)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("first was not called")
	}
	stop()
}
