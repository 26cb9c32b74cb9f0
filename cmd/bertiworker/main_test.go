package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"github.com/bertisim/berti/internal/campaign"
	"github.com/bertisim/berti/internal/harness"
	"github.com/bertisim/berti/internal/obs/live"
	"github.com/bertisim/berti/internal/server"
)

// binDir holds the bertiworker and bertid binaries, built once by
// TestMain for every test that runs them.
var binDir string

func TestMain(m *testing.M) {
	flag.Parse()
	os.Exit(runTests(m))
}

// runTests builds the binaries into a shared temporary directory (skipped
// under -short, where every test here skips) and runs the tests.
func runTests(m *testing.M) int {
	if testing.Short() {
		return m.Run()
	}
	dir, err := os.MkdirTemp("", "berti-test-bin")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer os.RemoveAll(dir)
	cmd := exec.Command("go", "build", "-o", dir+string(os.PathSeparator), ".", "../bertid")
	if out, err := cmd.CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building test binaries: %v\n%s", err, out)
		return 1
	}
	binDir = dir
	return m.Run()
}

// TestWorkerFleetChaosByteIdentical is the distributed acceptance test
// over real processes and real HTTP: a campaign on a lease-only
// coordinator, served by three bertiworker binaries — the first SIGKILLed
// mid-batch while partitioned from the coordinator, one of the survivors
// running behind the seeded network-fault injector — must finish with a
// report byte-identical to the same sweep on a plain local-execution
// daemon, with lease expiry, reassignment, and duplicate dedup observed
// in the fleet metrics.
func TestWorkerFleetChaosByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("boots the bertid and bertiworker binaries")
	}
	dir := t.TempDir()
	coordBin := filepath.Join(binDir, "bertid")
	workerBin := filepath.Join(binDir, "bertiworker")
	env := append(os.Environ(), "BERTI_SCALE=quick")
	specs := []harness.RunSpec{
		{Workload: "mcf_like_1554", L1DPf: "ip-stride"},
		{Workload: "mcf_like_1554", L1DPf: "next-line"},
		{Workload: "roms_like", L1DPf: "ip-stride"},
		{Workload: "roms_like", L1DPf: "next-line"},
		{Workload: "lbm_like", L1DPf: "ip-stride"},
		{Workload: "lbm_like", L1DPf: "next-line"},
	}
	ctx, cancel := context.WithTimeout(context.Background(), 8*time.Minute)
	defer cancel()

	// Reference: the sweep on a pristine local-execution daemon.
	refCl, stopRef := bootCoordinator(t, ctx, coordBin, env, filepath.Join(dir, "ref-data"), nil)
	refAck, err := refCl.Submit(ctx, "fleet-chaos", specs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := refCl.WaitCampaign(ctx, refAck.ID); err != nil {
		t.Fatal(err)
	}
	want, err := refCl.Report(ctx, refAck.ID)
	if err != nil {
		t.Fatal(err)
	}
	stopRef(os.Interrupt)

	// Chaos coordinator: lease-only, fast TTL so expiry happens in-test.
	cl, _ := bootCoordinator(t, ctx, coordBin, env, filepath.Join(dir, "data"), func(cmd *exec.Cmd) {
		cmd.Args = append(cmd.Args, "-lease-only", "-lease-ttl", "3s", "-lease-heartbeat", "500ms")
	})
	ack, err := cl.Submit(ctx, "fleet-chaos", specs)
	if err != nil {
		t.Fatal(err)
	}
	if ack.ID != refAck.ID {
		t.Fatalf("same sweep, different campaign IDs: %q vs %q", ack.ID, refAck.ID)
	}

	// Victim: leases the entire batch, then the injected partition severs
	// every request after that acquire — heartbeats and result pushes
	// included. SIGKILL it the moment the coordinator records the grant:
	// no drain, no final push, the hard case.
	victim := startWorker(t, workerBin, env, cl.Base(), "victim",
		"-max-specs", "6", "-poll", "50ms", "-net-fault", "sever-after=1,sever-for=1000000")
	for {
		if fleetSnapshot(t, cl.Base()).LeasesGranted >= 1 {
			break
		}
		if ctx.Err() != nil {
			t.Fatal("victim never acquired a lease")
		}
		time.Sleep(50 * time.Millisecond)
	}
	victim.Process.Kill()
	victim.Wait()

	// Two healthy workers finish the job once the victim's lease expires;
	// one runs behind the seeded fault injector.
	startWorker(t, workerBin, env, cl.Base(), "healthy-0",
		"-max-specs", "2", "-poll", "100ms", "-net-fault", "drop=0.1,delay=0.3,delayms=5,dup=0.2,seed=7")
	startWorker(t, workerBin, env, cl.Base(), "healthy-1",
		"-max-specs", "2", "-poll", "100ms")

	st, err := cl.WaitCampaign(ctx, ack.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != server.StateDone || st.Completed != len(specs) || st.Failed != 0 {
		t.Fatalf("chaos campaign finished as %+v, want done %d/%d", st, len(specs), len(specs))
	}
	got, err := cl.Report(ctx, ack.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("fleet report differs from local-execution report (%d vs %d bytes)", len(got), len(want))
	}

	// Late duplicate: replay a finished entry against the victim's
	// long-dead lease (the first lease the coordinator ever granted). It
	// must be accepted-and-deduped and leave the report untouched.
	var rep server.Report
	if err := json.Unmarshal(got, &rep); err != nil {
		t.Fatal(err)
	}
	rr, err := cl.PushResults(ctx, "l000001", "victim",
		[]campaign.Entry{{Key: rep.Runs[0].Key, Result: rep.Runs[0].Result}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rr.Accepted != 0 || rr.Duplicates != 1 {
		t.Fatalf("late replay: %+v, want 1 duplicate", rr)
	}
	again, err := cl.Report(ctx, ack.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, want) {
		t.Fatal("late duplicate changed the report")
	}

	// The failure story must be visible in the coordinator's metrics.
	fl := fleetSnapshot(t, cl.Base())
	if fl.LeasesExpired < 1 || fl.SpecsReassigned < 1 {
		t.Fatalf("fleet metrics: %+v, want the victim's lease expired and reassigned", fl)
	}
	if fl.DuplicateResults < 1 {
		t.Fatalf("fleet metrics: %+v, want deduped duplicates", fl)
	}
	if fl.RemoteResults < uint64(len(specs)) {
		t.Fatalf("fleet metrics: %+v, want every spec landed remotely", fl)
	}
	if fl.WorkersSeen < 3 {
		t.Fatalf("fleet metrics: %+v, want all three workers registered", fl)
	}
}

// bootCoordinator starts the bertid binary on a free port over dataDir,
// waits for /healthz, and returns a client plus a stop function that
// signals the process and reaps it.
func bootCoordinator(t *testing.T, ctx context.Context, bin string, env []string, dataDir string, tweak func(*exec.Cmd)) (*server.Client, func(os.Signal)) {
	t.Helper()
	addr := freeAddr(t)
	cmd := exec.Command(bin, "-addr", addr, "-data", dataDir)
	cmd.Env = env
	if tweak != nil {
		tweak(cmd)
	}
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	base := "http://" + addr
	for {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if ctx.Err() != nil {
			cmd.Process.Kill()
			t.Fatalf("coordinator never became healthy\n%s", out.String())
		}
		time.Sleep(20 * time.Millisecond)
	}
	stopped := false
	stop := func(sig os.Signal) {
		if stopped {
			return
		}
		stopped = true
		cmd.Process.Signal(sig)
		cmd.Wait()
	}
	t.Cleanup(func() {
		stop(syscall.SIGKILL)
		if t.Failed() {
			t.Logf("coordinator %s output:\n%s", dataDir, out.String())
		}
	})
	return server.NewClient(base), stop
}

// startWorker launches one bertiworker binary against the coordinator.
// The process is SIGKILLed at cleanup (tests that want a graceful or
// mid-test stop signal it themselves first).
func startWorker(t *testing.T, bin string, env []string, serverURL, id string, extra ...string) *exec.Cmd {
	t.Helper()
	args := append([]string{"-server", serverURL, "-id", id}, extra...)
	cmd := exec.Command(bin, args...)
	cmd.Env = env
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
		if t.Failed() {
			t.Logf("worker %s output:\n%s", id, out.String())
		}
	})
	return cmd
}

// fleetSnapshot fetches the coordinator's /metrics fleet section.
func fleetSnapshot(t *testing.T, base string) live.FleetSnapshot {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap live.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	return snap.Fleet
}

// freeAddr reserves a loopback port for the coordinator to bind.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}
