// Command bertid is the campaign daemon: simulation sweeps as a
// long-running service.
//
// Usage:
//
//	bertid -addr 127.0.0.1:9090 -data ./bertid-data
//	BERTI_SCALE=quick bertid -data /var/lib/bertid
//
// Clients submit experiment spec sets over HTTP/JSON
// (POST /api/v1/campaigns — cmd/experiments -server submits its whole
// batch as one campaign); the daemon validates them with
// the harness's typed config errors, dedupes every spec against the
// content-addressed result store, and queues fresh work in a lease pool
// that -workers in-process lease workers drain. Each campaign's spec list
// is written to a manifest when it is submitted, and every completion is
// written to the result store (one file per run, synced before it is
// renamed into place) the moment it finishes. The store keeps one
// directory per BERTI_SCALE. From the manifests and the store, a killed
// daemon — SIGKILL included — resumes every in-flight campaign on restart
// and finishes with a report byte-identical to an uninterrupted run. Live
// metrics (/metrics, /debug/vars) share the API listener.
//
// bertiworker processes may join any daemon: they take leased batches
// over POST /api/v1/leases, heartbeat, and push results back through the
// same completion path the in-process workers use. A remote lease whose
// worker dies or partitions expires after -lease-ttl and its specs are
// reassigned, with duplicate late results deduped. With -lease-only the
// daemon runs no in-process workers and becomes a pure coordinator; the
// final report is byte-identical to a solo local run either way.
//
// The first SIGINT/SIGTERM drains gracefully: new submissions get 503,
// in-flight simulations stop cooperatively at the engine's next poll
// stride, every completed run is already in the result store, and the
// process exits 0. A second signal exits immediately.
//
// Exit codes: 0 clean shutdown; 1 runtime failure; 2 usage error; 130
// forced exit by a second signal.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/bertisim/berti/internal/harness"
	"github.com/bertisim/berti/internal/server"
	"github.com/bertisim/berti/internal/sim"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:9090", "HTTP listen address for the API and metrics")
	dataDir := flag.String("data", "bertid-data", "state root: campaign manifests and the content-addressed result store (one directory per scale)")
	workers := flag.Int("workers", 0, "in-process lease workers, i.e. concurrent simulations (0 = NumCPU)")
	flag.IntVar(workers, "j", 0, "alias for -workers")
	corpusDir := flag.String("corpus-dir", "", "cache generated traces here (v2 containers) and stream them from disk")
	checkFlag := flag.Bool("check", false, "run the invariant checker on every simulation")
	schedFlag := flag.String("sched", "horizon", "engine scheduler: horizon (event-horizon skipping) or ticked (exhaustive per-cycle reference)")
	runTimeout := flag.Duration("run-timeout", 0, "per-run wall-clock budget (0 = 10m default, negative disables)")
	provFlag := flag.Bool("provenance", false, "track per-prefetch lifecycle provenance on every run")
	provCap := flag.Int("provenance-cap", 0, "per-run provenance record-pool capacity (0 = default 65536)")
	leaseOnly := flag.Bool("lease-only", false, "coordinator mode: hand specs to bertiworker processes via the lease endpoints instead of running them locally")
	leaseTTL := flag.Duration("lease-ttl", server.DefaultLeaseTTL, "lease lifetime without a heartbeat before specs are reassigned")
	leaseHB := flag.Duration("lease-heartbeat", 0, "heartbeat cadence suggested to workers and the expiry scan period (0 = lease-ttl/4)")
	readHeaderTimeout := flag.Duration("read-header-timeout", 10*time.Second, "HTTP header read deadline (slowloris guard; 0 disables)")
	readTimeout := flag.Duration("read-timeout", time.Minute, "HTTP full-request read deadline (0 disables)")
	idleTimeout := flag.Duration("idle-timeout", 2*time.Minute, "keep-alive connection idle deadline (0 disables)")
	flag.Parse()
	log.SetFlags(log.LstdFlags)
	log.SetPrefix("bertid: ")

	h := harness.New(harness.ScaleFromEnv())
	if *workers > 0 {
		h.Workers = *workers
	}
	h.CorpusDir = *corpusDir
	h.EnableChecks = *checkFlag
	h.RunTimeout = *runTimeout
	h.EnableProvenance = *provFlag
	h.ProvenanceCap = *provCap
	sched, err := sim.ParseScheduler(*schedFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bertid:", err)
		os.Exit(2)
	}
	h.Scheduler = sched

	// Bind before recovering: if another daemon already owns the address
	// (and very likely the data dir), fail fast instead of reading its
	// manifests and re-enqueueing work a live process is mid-way through.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bertid:", err)
		os.Exit(1)
	}
	// The roll-up owns OnResult (the server stores results through the
	// lease pool, not the hook). Attach it before server.New starts the
	// in-process workers, so no run escapes it.
	var rollup *harness.ProvenanceRollup
	if h.EnableProvenance {
		rollup = harness.NewProvenanceRollup()
		rollup.Attach(h)
	}
	s, err := server.New(server.Options{
		Harness:           h,
		DataDir:           *dataDir,
		LeaseOnly:         *leaseOnly,
		LeaseTTL:          *leaseTTL,
		HeartbeatInterval: *leaseHB,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bertid:", err)
		os.Exit(1)
	}
	if rollup != nil {
		s.Live().SetAttribution(func() any { return rollup.Report() })
	}
	// WriteTimeout stays 0 on purpose: the SSE progress streams are
	// long-lived responses. The read and idle deadlines are what close a
	// slowloris connection.
	httpServer := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: *readHeaderTimeout,
		ReadTimeout:       *readTimeout,
		IdleTimeout:       *idleTimeout,
	}
	mode := fmt.Sprintf("%d in-process workers", max(h.Workers, 1))
	if *leaseOnly {
		mode = "lease-only coordinator"
	}
	log.Printf("listening on http://%s (scale=%s, data=%s, %s)", ln.Addr(), h.Scale.Name, *dataDir, mode)

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpServer.Serve(ln) }()

	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		log.Printf("%v: draining — rejecting new work, letting in-flight runs stop (send again to exit immediately)", sig)
		go func() {
			<-sigc
			log.Print("second signal: exiting immediately")
			os.Exit(130)
		}()
		s.Drain()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := httpServer.Shutdown(ctx); err != nil {
			log.Printf("http shutdown: %v", err)
		}
		log.Print("drained; completed runs are stored, campaigns resume on restart")
	case err := <-serveErr:
		if !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "bertid:", err)
			os.Exit(1)
		}
	}
}
