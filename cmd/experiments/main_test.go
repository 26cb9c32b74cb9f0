package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"testing"
	"time"

	"github.com/bertisim/berti/internal/harness"
)

// binDir holds the experiments and bertid binaries, built once by
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

// TestKillAndResume is the end-to-end crash-safety acceptance test: a
// campaign interrupted by SIGINT and resumed from its journal must produce
// a final JSON report byte-identical to an uninterrupted campaign — even
// after the journal's tail is torn, which must cost only the torn record.
//
// AblCalibration is used because it is the cheapest registered experiment
// with enough harness runs (28 at quick scale: 7 workloads x 3 margins plus
// their baselines) that a signal fired after the first journaled run always
// interrupts real in-flight work; the exit-130 and partial-report checks
// below fail if it does not.
func TestKillAndResume(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the experiments binary three times")
	}
	dir := t.TempDir()
	bin := filepath.Join(binDir, "experiments")
	env := append(os.Environ(), "BERTI_SCALE=quick")
	const expID = "AblCalibration"

	// Reference: the same campaign run start to finish, no journal.
	refJSON := filepath.Join(dir, "reference.json")
	cmd := exec.Command(bin, "-run", expID, "-json-out", refJSON)
	cmd.Env = env
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("uninterrupted campaign failed: %v\n%s", err, out)
	}

	// Interrupted: journal on, SIGINT once at least one run is journaled.
	gotJSON := filepath.Join(dir, "resumed.json")
	journal := filepath.Join(dir, "campaign.journal")
	interrupted := exec.Command(bin, "-run", expID, "-journal", journal, "-json-out", gotJSON)
	interrupted.Env = env
	var conOut bytes.Buffer
	interrupted.Stdout, interrupted.Stderr = &conOut, &conOut
	if err := interrupted.Start(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Minute)
	for {
		// Header is line 1, so two newlines mean one journaled run.
		if data, err := os.ReadFile(journal); err == nil && bytes.Count(data, []byte{'\n'}) >= 2 {
			break
		}
		if time.Now().After(deadline) {
			interrupted.Process.Kill()
			t.Fatalf("no run was journaled within the deadline\n%s", conOut.String())
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err := interrupted.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	err := interrupted.Wait()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 130 {
		t.Fatalf("interrupted campaign must exit 130, got %v\n%s", err, conOut.String())
	}
	if !bytes.Contains(conOut.Bytes(), []byte("PARTIAL REPORT")) {
		t.Fatalf("interrupted campaign must mark its report partial\n%s", conOut.String())
	}
	if !bytes.Contains(conOut.Bytes(), []byte("-resume")) {
		t.Fatalf("interrupted campaign must print a resume hint\n%s", conOut.String())
	}
	if partial, err := os.ReadFile(gotJSON); err != nil || !bytes.Contains(partial, []byte(`"partial": true`)) {
		t.Fatalf("interrupted -json-out must carry the partial flag (err=%v)", err)
	}

	// Tear the journal tail (a crash mid-append): resume must truncate the
	// damaged record and re-run it, not fail.
	data, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < 40 {
		t.Fatalf("journal implausibly small: %d bytes", len(data))
	}
	if err := os.WriteFile(journal, data[:len(data)-20], 0o644); err != nil {
		t.Fatal(err)
	}

	resumed := exec.Command(bin, "-run", expID, "-journal", journal, "-resume", "-json-out", gotJSON)
	resumed.Env = env
	resOut, err := resumed.CombinedOutput()
	if err != nil {
		t.Fatalf("resumed campaign failed: %v\n%s", err, resOut)
	}
	if !bytes.Contains(resOut, []byte("damaged tail")) {
		t.Fatalf("resume must report the truncated record\n%s", resOut)
	}

	want, err := os.ReadFile(refJSON)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(gotJSON)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("resumed report differs from the uninterrupted one (%d vs %d bytes)", len(want), len(got))
	}
}

// TestFailedSpecsLoggedOnceInKeyOrder: a campaign whose every run fails
// must exit 1 and log each failed spec exactly once, in spec-key order, so
// the failure list of a -j N campaign reads the same on every run.
func TestFailedSpecsLoggedOnceInKeyOrder(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the experiments binary")
	}
	const expID = "AblCalibration"
	e, ok := harness.ExperimentByID(expID)
	if !ok {
		t.Fatalf("no experiment %s", expID)
	}
	var keys []string
	for _, s := range harness.Plan(harness.ScaleQuick, []harness.Experiment{e}) {
		keys = append(keys, s.Key())
	}
	sort.Strings(keys)

	// A 1ns run timeout fails every run.
	cmd := exec.Command(filepath.Join(binDir, "experiments"), "-run", expID, "-run-timeout", "1ns", "-j", "4")
	cmd.Env = append(os.Environ(), "BERTI_SCALE=quick")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 1 {
		t.Fatalf("a campaign with failed runs must exit 1, got %v\n%s", err, stderr.String())
	}
	var logged []string
	for _, line := range strings.Split(stderr.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, "experiments: run-timeout 1ns exceeded by spec "); ok {
			logged = append(logged, rest[:strings.LastIndex(rest, " (cycle ")])
		} else if strings.HasPrefix(line, "experiments: run failed: ") {
			t.Fatalf("a 1ns run timeout must fail runs on their deadline: %s", line)
		}
	}
	if strings.Join(logged, "\n") != strings.Join(keys, "\n") {
		t.Fatalf("logged failed specs:\n%s\nwant each of the %d planned specs once, in key order:\n%s",
			strings.Join(logged, "\n"), len(keys), strings.Join(keys, "\n"))
	}
	if want := fmt.Sprintf("experiments: %d run(s) failed", len(keys)); !strings.Contains(stderr.String(), want) {
		t.Fatalf("stderr lacks %q\n%s", want, stderr.String())
	}
}

// TestServerThinClient: -server delegates every simulation to a bertid
// daemon while reports stay local — so the thin client's -json-out must be
// byte-identical to a purely local run of the same experiment.
func TestServerThinClient(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the experiments binary against a daemon")
	}
	dir := t.TempDir()
	expBin := filepath.Join(binDir, "experiments")
	daemonBin := filepath.Join(binDir, "bertid")
	env := append(os.Environ(), "BERTI_SCALE=quick")
	const expID = "AblCalibration"

	localJSON := filepath.Join(dir, "local.json")
	local := exec.Command(expBin, "-run", expID, "-json-out", localJSON)
	local.Env = env
	if out, err := local.CombinedOutput(); err != nil {
		t.Fatalf("local campaign failed: %v\n%s", err, out)
	}

	// Boot the daemon on a reserved loopback port.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	daemon := exec.Command(daemonBin, "-addr", addr, "-data", filepath.Join(dir, "data"))
	daemon.Env = env
	var dout bytes.Buffer
	daemon.Stdout, daemon.Stderr = &dout, &dout
	if err := daemon.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		daemon.Process.Signal(syscall.SIGTERM)
		daemon.Wait()
	}()
	deadline := time.Now().Add(time.Minute)
	for {
		resp, err := http.Get("http://" + addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never became healthy\n%s", dout.String())
		}
		time.Sleep(20 * time.Millisecond)
	}

	remoteJSON := filepath.Join(dir, "remote.json")
	thin := exec.Command(expBin, "-run", expID, "-server", "http://"+addr, "-json-out", remoteJSON)
	thin.Env = env
	out, err := thin.CombinedOutput()
	if err != nil {
		t.Fatalf("thin-client campaign failed: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "running on daemon") {
		t.Fatalf("thin client must announce the daemon it targets\n%s", out)
	}

	want, err := os.ReadFile(localJSON)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(remoteJSON)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("thin-client report differs from the local one (%d vs %d bytes)", len(want), len(got))
	}
}

// TestRejectsSched: campaigns run on the default scheduler, so -sched is
// a usage error on experiments and bertid (bertisim keeps it).
func TestRejectsSched(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the experiments and bertid binaries")
	}
	for _, name := range []string{"experiments", "bertid"} {
		out, err := exec.Command(filepath.Join(binDir, name), "-sched", "ticked").CombinedOutput()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 2 {
			t.Errorf("%s -sched ticked: %v, want exit 2\n%s", name, err, out)
		}
	}
}
