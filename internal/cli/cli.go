// Package cli is the command-line front end the berti commands share: the
// harness run flags of the campaign commands and the two-signal interrupt
// policy of every long-running command.
package cli

import (
	"flag"
	"log"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"sync"
	"syscall"

	"github.com/bertisim/berti/internal/harness"
)

// RunFlags binds the run flags of the campaign commands to h's fields:
// -workers (alias -j) to Workers, -corpus-dir to CorpusDir, -check to
// EnableChecks and -run-timeout to RunTimeout. A -workers value of zero or
// less means NumCPU; a -run-timeout of zero means the harness default and
// a negative one disables the limit.
func RunFlags(fs *flag.FlagSet, h *harness.Harness) {
	setWorkers := func(s string) error {
		n, err := strconv.Atoi(s)
		if err != nil {
			return err
		}
		if n <= 0 {
			n = runtime.NumCPU()
		}
		h.Workers = n
		return nil
	}
	fs.Func("workers", "`n` concurrent simulations (0 = NumCPU)", setWorkers)
	fs.Func("j", "alias for -workers", setWorkers)
	fs.StringVar(&h.CorpusDir, "corpus-dir", h.CorpusDir, "cache generated traces here (v2 containers) and stream them from disk")
	fs.BoolVar(&h.EnableChecks, "check", h.EnableChecks, "run the invariant checker on every simulation")
	fs.DurationVar(&h.RunTimeout, "run-timeout", h.RunTimeout, "per-run wall-clock budget (0 = 10m default, negative disables)")
}

// OnInterrupt installs the shutdown policy of the long-running commands:
// the first SIGINT or SIGTERM calls first with the signal, and a second
// one exits the process with status 130 at once. first runs on the
// handler's goroutine and must not block (cancel a context, close a
// channel); the second signal is only watched for once it returns. stop
// unregisters the handler and ends its goroutine; it may be called more
// than once.
func OnInterrupt(first func(os.Signal)) (stop func()) {
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		select {
		case sig := <-sigc:
			first(sig)
		case <-done:
			return
		}
		select {
		case <-sigc:
			log.Print("second signal: exiting immediately")
			os.Exit(130)
		case <-done:
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			signal.Stop(sigc)
			close(done)
		})
	}
}
