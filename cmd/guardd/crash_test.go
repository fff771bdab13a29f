// Kill-and-restart crash harness: guardd is run as a real subprocess with a
// crash rule armed through the GDSIIGUARD_CRASH_POINT environment hook, so
// the process SIGKILLs itself mid-exploration at a chosen fault point — the
// closest deterministic stand-in for power loss. A second process started on
// the same -state-dir must recover the interrupted job, resume it from the
// last durable checkpoint, and finish with a Pareto front bit-identical to
// an uninterrupted run of the same spec.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strconv"
	"sync"
	"testing"
	"time"
)

var (
	buildOnce sync.Once
	buildBin  string
	buildErr  error
)

// guarddBinary builds the guardd binary once per test run.
func guarddBinary(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "guardd-crash-*")
		if err != nil {
			buildErr = err
			return
		}
		buildBin = filepath.Join(dir, "guardd")
		cmd := exec.Command("go", "build", "-o", buildBin, ".")
		if out, err := cmd.CombinedOutput(); err != nil {
			buildErr = fmt.Errorf("go build: %v\n%s", err, out)
		}
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return buildBin
}

// freePort reserves an ephemeral port and releases it for the daemon. The
// tiny reuse race is acceptable in tests.
func freePort(t *testing.T) int {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	port := l.Addr().(*net.TCPAddr).Port
	l.Close()
	return port
}

// daemon is one guardd subprocess under test. exit is closed once the
// process has been reaped, so any number of waiters can observe it.
type daemon struct {
	cmd  *exec.Cmd
	base string
	exit chan struct{}
	log  *os.File
}

// startDaemon launches guardd with the given extra flags and environment,
// logging to a file under dir for post-mortem.
func startDaemon(t *testing.T, dir string, extraArgs, extraEnv []string) *daemon {
	t.Helper()
	port := freePort(t)
	args := append([]string{
		"-addr", fmt.Sprintf("127.0.0.1:%d", port),
		"-log-level", "warn",
	}, extraArgs...)
	cmd := exec.Command(guarddBinary(t), args...)
	cmd.Env = append(os.Environ(), extraEnv...)
	logf, err := os.CreateTemp(dir, "guardd-*.log")
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	d := &daemon{
		cmd:  cmd,
		base: fmt.Sprintf("http://127.0.0.1:%d", port),
		exit: make(chan struct{}),
		log:  logf,
	}
	go func() {
		_ = cmd.Wait()
		close(d.exit)
	}()
	t.Cleanup(func() {
		select {
		case <-d.exit:
		default:
			_ = cmd.Process.Kill()
			<-d.exit
		}
		logf.Close()
	})
	return d
}

// waitHealthy polls /v1/healthz until the daemon answers.
func (d *daemon) waitHealthy(t *testing.T) {
	t.Helper()
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); {
		resp, err := http.Get(d.base + "/v1/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatalf("guardd at %s never became healthy (log: %s)", d.base, d.log.Name())
}

// waitExit blocks until the process exits — for crash runs, the SIGKILL the
// armed fault rule delivers.
func (d *daemon) waitExit(t *testing.T, timeout time.Duration) {
	t.Helper()
	select {
	case <-d.exit:
	case <-time.After(timeout):
		t.Fatalf("guardd did not crash within %v (log: %s)", timeout, d.log.Name())
	}
}

// submit posts an explore job and returns its ID.
func (d *daemon) submit(t *testing.T, explore map[string]any) string {
	t.Helper()
	body, err := json.Marshal(map[string]any{
		"kind":      "explore",
		"benchmark": "PRESENT",
		"explore":   explore,
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(d.base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d: %v", resp.StatusCode, out)
	}
	return out["id"].(string)
}

// awaitFront polls the job until done and returns its exploration payload
// with the wall-clock runtime_ms stripped from every front point — the one
// field a bit-identical resume legitimately cannot reproduce.
func (d *daemon) awaitFront(t *testing.T, id string, timeout time.Duration) map[string]any {
	t.Helper()
	for deadline := time.Now().Add(timeout); time.Now().Before(deadline); {
		resp, err := http.Get(d.base + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var out map[string]any
		err = json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		switch out["state"] {
		case "done":
			ex, ok := out["exploration"].(map[string]any)
			if !ok {
				t.Fatalf("done job %s has no exploration: %v", id, out)
			}
			if front, ok := ex["front"].([]any); ok {
				for _, p := range front {
					if m, ok := p.(map[string]any)["metrics"].(map[string]any); ok {
						delete(m, "runtime_ms")
					}
				}
			}
			// Delta reuse counters depend on how much of the run was
			// re-executed after the crash, not on its results; the front
			// equality is the recovery gate.
			delete(ex, "delta")
			return ex
		case "failed", "cancelled":
			t.Fatalf("job %s reached %v: %v (log: %s)", id, out["state"], out["error"], d.log.Name())
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("job %s not done within %v (log: %s)", id, timeout, d.log.Name())
	return nil
}

// crashScenario describes one SIGKILL point and the server/job shape that
// reaches it.
type crashScenario struct {
	name       string
	point      string   // GDSIIGUARD_CRASH_POINT value
	after      int      // calls exempted before the kill
	serverArgs []string // flags beyond -addr/-log-level/-state-dir
	explore    map[string]any
}

var crashScenarios = []crashScenario{
	{
		// Killed mid-WAL-append: spec, running-state and a few generation
		// checkpoints land, then the process dies before the next record.
		name:       "durable-append",
		point:      "durable.append",
		after:      4,
		serverArgs: []string{"-workers", "1"},
		explore: map[string]any{
			"pop_size": 6, "generations": 8, "parallelism": 1, "seed": 42,
		},
	},
	{
		// Killed inside the first mid-run snapshot compaction (the 8th
		// checkpoint under the default cadence): the snapshot publish dies
		// but the WAL it would replace is still intact.
		name:       "durable-snapshot",
		point:      "durable.snapshot",
		after:      0,
		serverArgs: []string{"-workers", "1"},
		explore: map[string]any{
			"pop_size": 6, "generations": 12, "parallelism": 1, "seed": 42,
		},
	},
}

func TestCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess crash harness skipped in -short mode")
	}
	guarddBinary(t) // build once before the parallel subtests fork

	for _, sc := range crashScenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()

			// Golden: the same server shape and job, never interrupted.
			golden := startDaemon(t, dir, sc.serverArgs, nil)
			golden.waitHealthy(t)
			want := golden.awaitFront(t, golden.submit(t, sc.explore), 3*time.Minute)
			_ = golden.cmd.Process.Kill()

			// Crash run: same job on a durable state dir, SIGKILL armed at
			// the scenario's fault point.
			stateDir := filepath.Join(dir, "state")
			crashArgs := append([]string{"-state-dir", stateDir}, sc.serverArgs...)
			victim := startDaemon(t, dir, crashArgs, []string{
				"GDSIIGUARD_CRASH_POINT=" + sc.point,
				"GDSIIGUARD_CRASH_AFTER=" + strconv.Itoa(sc.after),
			})
			victim.waitHealthy(t)
			id := victim.submit(t, sc.explore)
			victim.waitExit(t, 3*time.Minute)

			// The kill must have landed after the spec was durable, or the
			// scenario proved nothing: the state dir holds the job's WAL.
			if _, err := os.Stat(filepath.Join(stateDir, "jobs", id+".wal")); err != nil {
				t.Fatalf("no WAL for %s after crash: %v", id, err)
			}

			// Restart on the same state dir with no crash armed: the job is
			// re-queued from its checkpoint and must reproduce the golden
			// front exactly.
			revived := startDaemon(t, dir, crashArgs, nil)
			revived.waitHealthy(t)
			got := revived.awaitFront(t, id, 3*time.Minute)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("resumed front diverged from uninterrupted run:\n got: %v\nwant: %v", got, want)
			}
		})
	}
}
