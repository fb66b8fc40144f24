package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"rankedaccess/internal/serve"
	"rankedaccess/internal/snapshot"
)

// TestMain re-executes this test binary as ra itself when asked to, so
// the tests below run the real main: flag parsing, stdout/stderr split
// and exit status included.
func TestMain(m *testing.M) {
	if os.Getenv("RA_TEST_RUN_MAIN") != "" {
		main()
		return
	}
	os.Exit(m.Run())
}

// ra runs one command line and returns stdout, stderr and the exit status.
func ra(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "RA_TEST_RUN_MAIN=1")
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatal(err)
	}
	return stdout.String(), stderr.String(), cmd.ProcessState.ExitCode()
}

const twoPath = "Q(x, y, z) :- R(x, y), S(y, z)"

// TestQueryStreamLocalEqualsRemote is the diff CI's shell used to run:
// the first 10 000 answers streamed from TSVs through the facade
// engine's cursor and from a live serve process through the SDK's
// NDJSON cursor are the same bytes, and so are the probes.
func TestQueryStreamLocalEqualsRemote(t *testing.T) {
	data, snaps := t.TempDir(), t.TempDir()
	if out, stderr, code := ra(t, "gen", "-workload", "twopath", "-n", "20000", "-dom", "2000", "-seed", "5", "-out", data); code != 0 || !strings.Contains(out, "query: "+twoPath) {
		t.Fatalf("ra gen: exit %d\n%s%s", code, out, stderr)
	}
	cfg := serve.Flags(flag.NewFlagSet("serve", flag.ContinueOnError))
	cfg.Addr, cfg.DataDir, cfg.SnapshotDir = "127.0.0.1:0", data, snaps
	p, err := serve.Start(*cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, probe := range [][]string{{"-stream", "10000"}, {"-k", "0", "-k", "123456"}, {"-count"}} {
		args := append([]string{"query", "-q", twoPath, "-order", "x, y, z"}, probe...)
		local, stderr, code := ra(t, append(args, "-data", data)...)
		if code != 0 {
			t.Fatalf("ra %v -data: exit %d\n%s", args, code, stderr)
		}
		remote, stderr, code := ra(t, append(args, "-remote", "http://"+p.Addr())...)
		if code != 0 {
			t.Fatalf("ra %v -remote: exit %d\n%s", args, code, stderr)
		}
		if probe[0] == "-stream" && strings.Count(local, "\n") != 10000 {
			t.Fatalf("streamed %d rows, want 10000", strings.Count(local, "\n"))
		}
		if local != remote {
			t.Fatalf("ra %v: local and remote output differ\nlocal:\n%.300s\nremote:\n%.300s", args, local, remote)
		}
	}

	// The process's shutdown checkpoint is a file ra snapshot verifies.
	if err := p.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	infos, err := snapshot.List(snaps)
	if err != nil || len(infos) != 1 {
		t.Fatalf("snapshots: %v, %v", infos, err)
	}
	if out, stderr, code := ra(t, "snapshot", "-dir", snaps); code != 0 || !strings.Contains(out, infos[0].Name) {
		t.Fatalf("ra snapshot -dir: exit %d\n%s%s", code, out, stderr)
	}
	out, stderr, code := ra(t, "snapshot", "-file", filepath.Join(snaps, infos[0].Name))
	if code != 0 || !strings.Contains(out, "(format v2, ") || !strings.Contains(out, "registrations: 1") {
		t.Fatalf("ra snapshot -file: exit %d\n%s%s", code, out, stderr)
	}
}

// TestExitStatus: 0 done, 1 the job failed, 2 bad usage — for every
// subcommand, through the one check / badUsage pair.
func TestExitStatus(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
		want string // in stdout on success, in stderr otherwise
	}{
		{[]string{"classify", "-q", twoPath, "-order", "x, z, y"}, 0, "disruptive trio: (x, z, y)"},
		{[]string{"classify", "-q", twoPath, "-order", "x, z, y", "-fd", "R: y -> x"}, 0, "FDs:"},
		{[]string{"tables", "-fig2"}, 0, "LEX"},
		{[]string{"classify", "-q", "Q(x :- R(x)"}, 1, "ra classify:"},
		{[]string{"query", "-q", twoPath, "-data", t.TempDir()}, 1, "ra query: no .tsv files in"},
		{[]string{"snapshot", "-file", filepath.Join(t.TempDir(), "none.rka")}, 1, "ra snapshot:"},
		{[]string{"snapshot", "-file", "../../internal/snapshot/testdata/v1.rka"}, 0, "format v1: layered-lex structures are not read"},
		{[]string{"classify"}, 2, "ra classify: -q is required"},
		{[]string{"query", "-q", twoPath, "-k", "seven"}, 2, `ra query: bad index "seven"`},
		{[]string{"gen", "-workload", "mesh"}, 2, `ra gen: unknown workload "mesh"`},
		{[]string{"snapshot"}, 2, "ra snapshot: one of -file or -dir is required"},
		{[]string{"tables", "-fig9"}, 2, "flag provided but not defined: -fig9"},
		{[]string{"serve"}, 2, "usage: ra classify|gen|query|snapshot|tables"},
		{nil, 2, "usage: ra classify|gen|query|snapshot|tables"},
	} {
		stdout, stderr, code := ra(t, tc.args...)
		if got := map[bool]string{true: stdout, false: stderr}[tc.code == 0]; code != tc.code || !strings.Contains(got, tc.want) {
			t.Errorf("ra %q: exit %d, want %d with %q\nstdout: %s\nstderr: %s", tc.args, code, tc.code, tc.want, stdout, stderr)
		}
	}
}
