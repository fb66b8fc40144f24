package main

import (
	"bytes"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"

	"rankedaccess/internal/workload"
)

// TestMain re-executes this test binary as cmd/serve itself when asked
// to: the one place the real main — flag parsing, signal handling, exit
// code — runs under test.
func TestMain(m *testing.M) {
	if os.Getenv("SERVE_TEST_RUN_MAIN") != "" {
		main()
		return
	}
	os.Exit(m.Run())
}

// TestMainServesShedsAndDrains boots the overload variant of the real
// binary (-rate-limit 0.1 -rate-burst 2): the flags reach the handler
// (the third counted request sheds 429 + Retry-After), SIGTERM drains,
// and the process exits 0 having logged the startup and farewell lines.
func TestMainServesShedsAndDrains(t *testing.T) {
	_, in := workload.TwoPath(rand.New(rand.NewSource(5)), 200, 20, 0)
	data := t.TempDir()
	if err := in.WriteDir(data); err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := lis.Addr().String()
	lis.Close()

	var logs bytes.Buffer
	cmd := exec.Command(os.Args[0], "-addr", addr, "-data", data, "-rate-limit", "0.1", "-rate-burst", "2")
	cmd.Env = append(os.Environ(), "SERVE_TEST_RUN_MAIN=1")
	cmd.Stderr = &logs
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()
	count := func() *http.Response {
		for deadline := time.Now().Add(15 * time.Second); ; time.Sleep(20 * time.Millisecond) {
			resp, err := http.Post("http://"+addr+"/v1/instance/count", "application/json", strings.NewReader(`{"query": "Q(x, y, z) :- R(x, y), S(y, z)"}`))
			if err == nil {
				resp.Body.Close()
				return resp
			}
			if time.Now().After(deadline) {
				t.Fatalf("serve did not come up: %v\n%s", err, logs.String())
			}
		}
	}
	if a, b := count(), count(); a.StatusCode != 200 || b.StatusCode != 200 {
		t.Fatalf("the burst of 2: %d, %d", a.StatusCode, b.StatusCode)
	}
	if c := count(); c.StatusCode != 429 || c.Header.Get("Retry-After") == "" {
		t.Fatalf("the third request: %d, Retry-After %q", c.StatusCode, c.Header.Get("Retry-After"))
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("exit after SIGTERM: %v\n%s", err, logs.String())
	}
	for _, line := range []string{"serve: 400 tuples loaded, listening on " + addr, "serve: signal received, draining", "serve: drained, bye"} {
		if !strings.Contains(logs.String(), line) {
			t.Errorf("log lacks %q:\n%s", line, logs.String())
		}
	}
}
