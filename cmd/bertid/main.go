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
// The run flags -workers (alias -j), -corpus-dir, -check and -run-timeout
// mean the same as on experiments and bertiworker. Campaigns always run on
// the event-horizon scheduler, whose results are byte-identical to the
// per-cycle reference loop; bertisim -sched ticked runs a single spec on
// that loop.
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
	"time"

	"github.com/bertisim/berti/internal/cli"
	"github.com/bertisim/berti/internal/harness"
	"github.com/bertisim/berti/internal/server"
)

func main() {
	h := harness.New(harness.ScaleFromEnv())
	addr := flag.String("addr", "127.0.0.1:9090", "HTTP listen address for the API and metrics")
	dataDir := flag.String("data", "bertid-data", "state root: campaign manifests and the content-addressed result store (one directory per scale)")
	cli.RunFlags(flag.CommandLine, h)
	flag.BoolVar(&h.EnableProvenance, "provenance", false, "track per-prefetch lifecycle provenance on every run")
	flag.IntVar(&h.ProvenanceCap, "provenance-cap", 0, "per-run provenance record-pool capacity (0 = default 65536)")
	leaseOnly := flag.Bool("lease-only", false, "coordinator mode: hand specs to bertiworker processes via the lease endpoints instead of running them locally")
	leaseTTL := flag.Duration("lease-ttl", server.DefaultLeaseTTL, "lease lifetime without a heartbeat before specs are reassigned")
	leaseHB := flag.Duration("lease-heartbeat", 0, "heartbeat cadence suggested to workers and the expiry scan period (0 = lease-ttl/4)")
	readHeaderTimeout := flag.Duration("read-header-timeout", 10*time.Second, "HTTP header read deadline (slowloris guard; 0 disables)")
	readTimeout := flag.Duration("read-timeout", time.Minute, "HTTP full-request read deadline (0 disables)")
	idleTimeout := flag.Duration("idle-timeout", 2*time.Minute, "keep-alive connection idle deadline (0 disables)")
	flag.Parse()
	log.SetFlags(log.LstdFlags)
	log.SetPrefix("bertid: ")

	// Bind before recovering: if another daemon already owns the address
	// (and very likely the data dir), fail fast instead of reading its
	// manifests and re-enqueueing work a live process is mid-way through.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bertid:", err)
		os.Exit(1)
	}
	// The roll-up owns OnResult (the server stores results through the
	// lease pool, not the hook); the server fires it once per landed
	// result, in-process or pushed. Attach it before server.New starts the
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

	interrupted, interrupt := context.WithCancel(context.Background())
	defer interrupt()
	stop := cli.OnInterrupt(func(sig os.Signal) {
		log.Printf("%v: draining — rejecting new work, letting in-flight runs stop (send again to exit immediately)", sig)
		interrupt()
	})
	defer stop()
	select {
	case <-interrupted.Done():
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
