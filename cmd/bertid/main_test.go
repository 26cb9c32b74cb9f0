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
	"strings"
	"syscall"
	"testing"
	"time"

	"github.com/bertisim/berti/internal/harness"
	"github.com/bertisim/berti/internal/server"
)

// binDir holds the bertid binary, built once by TestMain for every test
// that runs it.
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
	cmd := exec.Command("go", "build", "-o", dir+string(os.PathSeparator), ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building test binaries: %v\n%s", err, out)
		return 1
	}
	binDir = dir
	return m.Run()
}

// TestKillResumeByteIdentical is the daemon's crash-safety acceptance
// test, run against the real binary over real HTTP: a campaign whose
// daemon is SIGKILLed mid-flight — no drain, no flush, the hard case —
// must resume on restart and finish with a report byte-identical to the
// same sweep run uninterrupted on a pristine daemon.
func TestKillResumeByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("boots the bertid binary three times")
	}
	dir := t.TempDir()
	bin := filepath.Join(binDir, "bertid")
	env := append(os.Environ(), "BERTI_SCALE=quick")
	specs := []harness.RunSpec{
		{Workload: "mcf_like_1554", L1DPf: "berti"},
		{Workload: "mcf_like_1554", L1DPf: "ip-stride"},
		{Workload: "roms_like", L1DPf: "berti"},
		{Workload: "roms_like", L1DPf: "next-line"},
		{Workload: "lbm_like", L1DPf: "berti"},
		{Workload: "lbm_like", L1DPf: "ip-stride"},
	}
	ctx, cancel := context.WithTimeout(context.Background(), 8*time.Minute)
	defer cancel()

	// Reference: the sweep on a pristine daemon, start to finish.
	refCl, stopRef := bootDaemon(t, ctx, bin, env, filepath.Join(dir, "ref-data"), nil)
	refAck, err := refCl.Submit(ctx, "kill-test", specs)
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

	// Life 1: single worker so the campaign takes a while; SIGKILL the
	// moment the first completion lands in the result store.
	data := filepath.Join(dir, "data")
	cl, stop1 := bootDaemon(t, ctx, bin, env, data, func(cmd *exec.Cmd) {
		cmd.Args = append(cmd.Args, "-workers", "1")
	})
	ack, err := cl.Submit(ctx, "kill-test", specs)
	if err != nil {
		t.Fatal(err)
	}
	if ack.ID != refAck.ID {
		t.Fatalf("same sweep, different campaign IDs: %q vs %q", ack.ID, refAck.ID)
	}
	stored := filepath.Join(data, "results", "*", "*.json")
	for {
		// Store.Put renames a finished file into place, so any match is a
		// complete, durable result.
		if m, _ := filepath.Glob(stored); len(m) > 0 {
			break
		}
		if ctx.Err() != nil {
			t.Fatal("no run was stored before the deadline")
		}
		time.Sleep(20 * time.Millisecond)
	}
	stop1(syscall.SIGKILL)

	// Life 2: a fresh daemon over the same data dir resumes and finishes.
	cl2, stop2 := bootDaemon(t, ctx, bin, env, data, nil)
	defer stop2(os.Interrupt)
	st, err := cl2.WaitCampaign(ctx, ack.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != server.StateDone || st.Completed != len(specs) {
		t.Fatalf("resumed campaign finished as %+v, want done %d/%d", st, len(specs), len(specs))
	}
	got, err := cl2.Report(ctx, ack.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("resumed report differs from uninterrupted report (%d vs %d bytes)", len(got), len(want))
	}
}

// bootDaemon starts the bertid binary on a free port over dataDir, waits
// for /healthz, and returns a client plus a stop function that signals the
// process and reaps it.
func bootDaemon(t *testing.T, ctx context.Context, bin string, env []string, dataDir string, tweak func(*exec.Cmd)) (*server.Client, func(os.Signal)) {
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
			t.Fatalf("daemon never became healthy\n%s", out.String())
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
	t.Cleanup(func() { stop(syscall.SIGKILL) })
	return server.NewClient(base), stop
}

// freeAddr reserves a loopback port for the daemon to bind.
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

// TestHealthAndValidationOverHTTP boots the daemon once and exercises the
// cheap API surface end to end: health, spec validation (typed field
// errors over the wire), and the metrics mount sharing the API listener.
func TestHealthAndValidationOverHTTP(t *testing.T) {
	if testing.Short() {
		t.Skip("boots the bertid binary")
	}
	dir := t.TempDir()
	bin := filepath.Join(binDir, "bertid")
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	env := append(os.Environ(), "BERTI_SCALE=quick")
	cl, stop := bootDaemon(t, ctx, bin, env, filepath.Join(dir, "data"), nil)
	defer stop(os.Interrupt)

	_, err := cl.Submit(ctx, "bad", []harness.RunSpec{{Workload: "mcf_like_1554", L1DPf: "nope"}})
	if err == nil || !strings.Contains(err.Error(), "nope") {
		t.Fatalf("invalid prefetcher over HTTP: got %v", err)
	}

	for _, path := range []string{"/metrics", "/debug/vars"} {
		base := cl.Base()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		var doc map[string]any
		err = json.NewDecoder(resp.Body).Decode(&doc)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d, decode err %v", path, resp.StatusCode, err)
		}
	}
}
