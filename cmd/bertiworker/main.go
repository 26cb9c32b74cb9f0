// Command bertiworker is the fleet execution node: it pulls leased
// batches of run specs from a bertid coordinator (-server), executes them
// on the local harness pool, streams each result back as it lands, and
// heartbeats so the coordinator knows it is alive.
//
// Usage:
//
//	bertiworker -server http://127.0.0.1:9090
//	BERTI_SCALE=quick bertiworker -server http://coordinator:9090 -j 8
//
// Robustness is the point: transient HTTP and connection errors retry
// with deterministic exponential backoff; a lease lost to a network
// partition abandons the batch (the coordinator reassigned it) but still
// pushes whatever finished, which the coordinator dedupes; a worker
// SIGKILLed mid-batch simply stops heartbeating and its lease expires.
// -net-fault injects seeded network faults (drop/delay/duplicate/sever)
// into the worker's own HTTP client for chaos testing.
//
// The run flags -workers (alias -j), -corpus-dir, -check and -run-timeout
// mean the same as on experiments and bertid. Runs always use the
// event-horizon scheduler, whose results are byte-identical to the
// per-cycle reference loop; bertisim -sched ticked runs a single spec on
// that loop.
//
// The first SIGINT/SIGTERM stops in-flight runs cooperatively, pushes
// every completed result, and exits 0 (abandoned specs are reassigned
// when the lease expires); a second signal exits 130 immediately.
//
// Exit codes: 0 clean shutdown; 1 runtime failure; 2 usage error; 130
// forced exit by a second signal.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"

	"github.com/bertisim/berti/internal/cli"
	"github.com/bertisim/berti/internal/fault"
	"github.com/bertisim/berti/internal/harness"
	"github.com/bertisim/berti/internal/server"
)

func main() {
	h := harness.New(harness.ScaleFromEnv())
	serverURL := flag.String("server", "", "bertid coordinator base URL (required), e.g. http://127.0.0.1:9090")
	id := flag.String("id", "", "stable worker identity (default hostname-pid)")
	maxSpecs := flag.Int("max-specs", 0, "specs requested per lease (0 = coordinator default)")
	poll := flag.Duration("poll", 0, "idle wait between lease attempts when no work is pending (0 = 500ms)")
	cli.RunFlags(flag.CommandLine, h)
	netFault := flag.String("net-fault", "", "seeded network-fault plan for this worker's HTTP client, e.g. drop=0.1,delay=0.2,delayms=25,dup=0.1,seed=7")
	flag.Parse()
	log.SetFlags(log.LstdFlags)
	log.SetPrefix("bertiworker: ")

	if *serverURL == "" {
		fmt.Fprintln(os.Stderr, "bertiworker: -server is required")
		os.Exit(2)
	}
	wid := *id
	if wid == "" {
		host, err := os.Hostname()
		if err != nil {
			host = "worker"
		}
		wid = fmt.Sprintf("%s-%d", host, os.Getpid())
	}

	cl := server.NewClient(*serverURL)
	if *netFault != "" {
		plan, err := fault.ParseNet(*netFault)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bertiworker:", err)
			os.Exit(2)
		}
		cl.SetTransport(plan.Transport(nil))
		log.Printf("injecting network faults: %s", plan)
	}

	w := &server.Worker{
		ID:           wid,
		Client:       cl,
		Harness:      h,
		MaxSpecs:     *maxSpecs,
		PollInterval: *poll,
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stop := cli.OnInterrupt(func(sig os.Signal) {
		log.Printf("%v: stopping in-flight runs, pushing completed results, then exiting (send again to exit immediately)", sig)
		cancel()
	})
	defer stop()

	log.Printf("worker %s pulling from %s (scale=%s)", wid, *serverURL, h.Scale.Name)
	if err := w.Run(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "bertiworker:", err)
		os.Exit(1)
	}
	log.Print("clean shutdown")
}
