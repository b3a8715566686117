package main

// Kill-and-restart end-to-end test, run by CI under -race: a real
// histwalkd child process (this test binary re-executing itself) is
// SIGKILLed mid-job, restarted on the same -store-dir, and must resume
// the job from its last durable checkpoint to a Result byte-identical
// to an uninterrupted direct Run. SIGKILL gives the process no chance
// to flush or unwind, so this exercises the store's real crash
// surface: torn final log lines, unreplayed checkpoints, a job frozen
// in the running state.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"strings"
	"syscall"
	"testing"
	"time"

	"histwalk"
)

const childEnv = "HISTWALKD_E2E_CHILD"

// TestMain turns the test binary into histwalkd itself when re-executed
// with the child marker, so the kill test drives a genuine separate
// process without needing a prebuilt binary on disk.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		ctx, stop := context.WithCancel(context.Background())
		go func() {
			// The parent stops the final child with SIGTERM; earlier
			// incarnations die by SIGKILL, which nothing can catch.
			ch := make(chan os.Signal, 1)
			signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
			<-ch
			stop()
		}()
		if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "histwalkd child:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// startChild launches this test binary as a single-worker histwalkd
// process over store dir and waits for its listening line.
func startChild(t *testing.T, dir string) (string, *exec.Cmd) {
	t.Helper()
	base, cmd, _ := spawnChild(t, dir, "-max-concurrent", "1")
	return base, cmd
}

// spawnChild launches this test binary as a histwalkd process over
// store dir with extra daemon flags, waits for its listening line and
// returns the recovery line printed before it. A child the test has
// not waited for by its end is killed, so a failed test leaves no
// daemon behind.
func spawnChild(t *testing.T, dir string, flags ...string) (base string, cmd *exec.Cmd, recovery string) {
	t.Helper()
	cmd = exec.Command(os.Args[0], append([]string{"-addr", "127.0.0.1:0", "-store-dir", dir}, flags...)...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	lines := bufio.NewReader(out)
	deadline := time.Now().Add(60 * time.Second)
	for {
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			t.Fatal("child never started listening")
		}
		line, err := lines.ReadString('\n')
		if err != nil {
			cmd.Process.Kill()
			t.Fatalf("child exited before listening: %v", err)
		}
		line = strings.TrimSpace(line)
		if strings.HasPrefix(line, "histwalkd recovered ") {
			recovery = line
		}
		if base, ok := strings.CutPrefix(line, "histwalkd listening on "); ok {
			go func() {
				for {
					if _, err := lines.ReadString('\n'); err != nil {
						return
					}
				}
			}()
			return base, cmd, recovery
		}
	}
}

func getStatus(t *testing.T, base, id string) histwalk.JobStatus {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st histwalk.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func TestDaemonKillRestartResume(t *testing.T) {
	dir := t.TempDir()
	base, child := startChild(t, dir)

	// A step-metered job long enough to be mid-flight when the kill
	// lands, with checkpoints accumulating on disk as it runs.
	spec := histwalk.SpecJSON{
		Dataset: "clustered",
		Walker:  "cnrw",
		Budget:  20000,
		Chains:  4,
		Seed:    4242,
		Cost:    "steps",
	}
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var st histwalk.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || st.ID == "" {
		t.Fatalf("submit: %d %+v", resp.StatusCode, st)
	}

	// Wait until the job is visibly mid-run with checkpoints behind it.
	deadline := time.Now().Add(60 * time.Second)
	for {
		cur := getStatus(t, base, st.ID)
		var spent int
		for _, c := range cur.Chains {
			if c.Spent > spent {
				spent = c.Spent
			}
		}
		if spent >= 3000 {
			break
		}
		if cur.State != histwalk.JobQueued && cur.State != histwalk.JobRunning {
			t.Fatalf("job finished too early to kill: %s", cur.State)
		}
		if time.Now().After(deadline) {
			t.Fatal("job never reached mid-run")
		}
		time.Sleep(time.Millisecond)
	}

	// kill -9: no flush, no drain, no goodbye.
	if err := child.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	child.Wait()

	// Restart on the same store dir; the job must resume and finish.
	base2, child2 := startChild(t, dir)
	deadline = time.Now().Add(120 * time.Second)
	var fin histwalk.JobStatus
	for {
		fin = getStatus(t, base2, st.ID)
		if fin.State.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("resumed job stuck in %s", fin.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if fin.State != histwalk.JobDone || fin.Result == nil {
		t.Fatalf("resumed job ended %s (%s)", fin.State, fin.Error)
	}

	// The acceptance bar: byte-identical (as JSON) to an uninterrupted
	// direct Run of the same resolved spec.
	resolved, err := spec.Spec()
	if err != nil {
		t.Fatal(err)
	}
	want, err := histwalk.Run(context.Background(), resolved)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, err := json.Marshal(fin.Result)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wantJSON, gotJSON) {
		t.Fatalf("resumed result differs from uninterrupted direct Run:\n%s\nvs\n%s", gotJSON, wantJSON)
	}

	// The second daemon dies cleanly on SIGTERM, preserving the store.
	if err := child2.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- child2.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("graceful child exit: %v", err)
		}
	case <-time.After(60 * time.Second):
		child2.Process.Kill()
		t.Fatal("second child did not exit on SIGTERM")
	}
}

// TestDaemonKillUnderLoad holds the service's load contract across a
// crash. A two-worker daemon over -store-dir takes a mixed batch of
// jobs and is SIGKILLed while some are done, some running and some
// still queued; a daemon restarted on the same store takes the rest of
// the submissions. No acknowledged job may be lost or fail: each must
// end done with a Result byte-equal to a direct Run of its spec, and
// the recovery line must show every recovery path taken.
func TestDaemonKillUnderLoad(t *testing.T) {
	const beforeKill, total = 12, 24
	walkers := []string{"cnrw", "gnrw-degree", "srw", "mhrw"}
	specs := make([]histwalk.SpecJSON, total)
	for i := range specs {
		specs[i] = histwalk.SpecJSON{
			Dataset: "clustered", Walker: walkers[i%len(walkers)],
			Budget: 50, Chains: 4, Seed: int64(500 + i),
		}
	}
	// Job 0 finishes at once; jobs 1 and 2 then hold both workers long
	// enough for the kill to land while they run and the rest queue.
	for _, i := range []int{1, 2} {
		specs[i].Budget, specs[i].Cost = 20000, "steps"
	}

	dir := t.TempDir()
	flags := []string{"-max-concurrent", "2"}
	base, child, _ := spawnChild(t, dir, flags...)
	ids := make([]string, total)
	for i := 0; i < beforeKill; i++ {
		ids[i] = submitSpec(t, base, specs[i])
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		n := map[histwalk.JobState]int{}
		for _, st := range listJobs(t, base) {
			n[st.State]++
		}
		if n[histwalk.JobDone] >= 1 && n[histwalk.JobRunning] >= 1 && n[histwalk.JobQueued] >= 1 {
			break
		}
		if n[histwalk.JobRunning]+n[histwalk.JobQueued] == 0 || time.Now().After(deadline) {
			t.Fatalf("never done, running and queued at once: %v", n)
		}
		time.Sleep(time.Millisecond)
	}
	if err := child.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	child.Wait()

	base2, child2, recovery := spawnChild(t, dir, flags...)
	t.Log(recovery)
	var recovered, requeued, resumed, restarted, failed int
	_, err1 := fmt.Sscanf(recovery, "histwalkd recovered %d jobs", &recovered)
	_, err2 := fmt.Sscanf(recovery[strings.LastIndex(recovery, "(")+1:],
		"requeued %d, resumed %d, restarted %d, failed %d)", &requeued, &resumed, &restarted, &failed)
	if err1 != nil || err2 != nil {
		t.Fatalf("bad recovery line %q: %v %v", recovery, err1, err2)
	}
	terminal := recovered - requeued - resumed - restarted - failed
	if recovered != beforeKill || requeued < 1 || resumed+restarted < 1 || terminal < 1 || failed != 0 {
		t.Fatalf("recovery %q: want all %d jobs back with requeued, resumed or restarted, and terminal jobs each >= 1 and none failed",
			recovery, beforeKill)
	}
	for i := beforeKill; i < total; i++ {
		ids[i] = submitSpec(t, base2, specs[i])
	}

	deadline = time.Now().Add(120 * time.Second)
	for i, id := range ids {
		var fin histwalk.JobStatus
		for {
			resp, err := http.Get(base2 + "/v1/jobs/" + id)
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode == http.StatusNotFound {
				t.Fatalf("job %d (%s) lost across the kill", i, id)
			}
			err = json.NewDecoder(resp.Body).Decode(&fin)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if fin.State.Terminal() {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %d stuck in %s", i, fin.State)
			}
			time.Sleep(5 * time.Millisecond)
		}
		if fin.State != histwalk.JobDone || fin.Result == nil {
			t.Fatalf("job %d (%s) ended %s (%s)", i, specs[i].Walker, fin.State, fin.Error)
		}
		resolved, err := specs[i].Spec()
		if err != nil {
			t.Fatal(err)
		}
		want, err := histwalk.Run(context.Background(), resolved)
		if err != nil {
			t.Fatal(err)
		}
		wantJSON, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		gotJSON, err := json.Marshal(fin.Result)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wantJSON, gotJSON) {
			t.Fatalf("job %d (%s) differs from a direct Run:\n%s\nvs\n%s", i, specs[i].Walker, gotJSON, wantJSON)
		}
	}

	if err := child2.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := child2.Wait(); err != nil {
		t.Fatalf("graceful child exit: %v", err)
	}
}

// submitSpec posts spec and returns the acknowledged job ID.
func submitSpec(t *testing.T, base string, spec histwalk.SpecJSON) string {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st histwalk.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted || st.ID == "" {
		t.Fatalf("submit: %d %+v", resp.StatusCode, st)
	}
	return st.ID
}

// listJobs returns every job the daemon knows.
func listJobs(t *testing.T, base string) []histwalk.JobStatus {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var all []histwalk.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&all); err != nil {
		t.Fatal(err)
	}
	return all
}
