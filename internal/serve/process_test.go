package serve

// The assembled process under test: every role booted through Start on
// loopback :0 listeners, driven through the client SDK, stopped through
// Shutdown. What a handler answers is the other tests' business; these
// hold what only the assembly decides: flag validation, role wiring,
// listener and checkpoint lifecycle, drain order. (They replace CI's
// http-smoke and cluster-smoke shell jobs; CONTRIBUTING maps each step.)

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"rankedaccess/client"
	"rankedaccess/internal/database"
	"rankedaccess/internal/engine"
	"rankedaccess/internal/snapshot"
	"rankedaccess/internal/workload"
)

var (
	procSpec = client.Spec{Query: twoPath, Order: "x, y, z"}
	bg       = context.Background()
)

func check(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// procData writes the processes' dataset as TSVs: ≈ 400 000 two-path
// answers, several MB as NDJSON — more than loopback socket buffers hold.
func procData(t *testing.T) (*database.Instance, string) {
	_, in := workload.TwoPath(rand.New(rand.NewSource(5)), 20000, 1000, 0)
	dir := t.TempDir()
	check(t, in.WriteDir(dir))
	return in, dir
}

// procConfig is the flag defaults on a loopback port of the kernel's
// choosing, then set.
func procConfig(set func(*RunConfig)) RunConfig {
	cfg := Flags(flag.NewFlagSet("serve", flag.ContinueOnError))
	cfg.Addr = "127.0.0.1:0"
	set(cfg)
	return *cfg
}

func boot(t *testing.T, set func(*RunConfig)) *Process {
	t.Helper()
	p, err := Start(procConfig(set))
	check(t, err)
	return p
}

func shutdown(t *testing.T, p *Process) {
	t.Helper()
	ctx, cancel := context.WithTimeout(bg, 15*time.Second)
	defer cancel()
	if err := p.Shutdown(ctx); err != nil {
		t.Errorf("Shutdown: %v", err)
	}
}

// registerQ dials addr and registers procSpec as "q".
func registerQ(t *testing.T, addr string) (*client.Client, *client.Prepared) {
	t.Helper()
	c, err := client.Dial(bg, "http://"+addr, nil)
	check(t, err)
	pq, err := c.Register(bg, "q", procSpec)
	check(t, err)
	return c, pq
}

// streamTSV renders the first n answers of q's NDJSON cursor stream.
func streamTSV(t *testing.T, addr string, n int) string {
	t.Helper()
	_, pq := registerQ(t, addr)
	cur, err := pq.Cursor(bg, 0)
	check(t, err)
	var b strings.Builder
	got, err := cur.Stream(bg, n, func(row []client.Value) error {
		_, err := fmt.Fprintf(&b, "%d\t%d\t%d\n", row[0], row[1], row[2])
		return err
	})
	if err != nil || got != n {
		t.Fatalf("streamed %d of %d rows: %v", got, n, err)
	}
	return b.String()
}

// call sends one request (a POST when it has a body) and returns the
// status, the Retry-After header and the body.
func call(t *testing.T, addr, path, body string) (int, string, string) {
	t.Helper()
	method := "GET"
	if body != "" {
		method = "POST"
	}
	req, err := http.NewRequest(method, "http://"+addr+path, strings.NewReader(body))
	check(t, err)
	resp, err := http.DefaultClient.Do(req)
	check(t, err)
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header.Get("Retry-After"), string(out)
}

// scrape returns addr's /metrics as "name|label=value|..." → value.
func scrape(t *testing.T, addr string) map[string]float64 {
	t.Helper()
	return scrapeURL(t, http.DefaultClient, "http://"+addr)
}

func waitUntil(t *testing.T, what string, ok func() bool) {
	t.Helper()
	for deadline := time.Now().Add(15 * time.Second); !ok(); time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// snapshots counts dir's snapshot files and verifies the newest.
func snapshots(t *testing.T, dir string) int {
	t.Helper()
	infos, err := snapshot.List(dir)
	check(t, err)
	if len(infos) > 0 {
		m, err := snapshot.Open(filepath.Join(dir, infos[0].Name))
		check(t, err)
		m.Close()
	}
	return len(infos)
}

// TestProcessFlagErrors: every misconfiguration that was a log.Fatal in
// cmd/serve's main is Start's returned error, message unchanged.
func TestProcessFlagErrors(t *testing.T) {
	empty := t.TempDir()
	for want, set := range map[string]func(*RunConfig){
		"serve: -checkpoint-every requires -snapshot-dir":             func(c *RunConfig) { c.CheckpointEvery = time.Second },
		"serve: -rpc-addr requires -role=shard":                       func(c *RunConfig) { c.RPCAddr = ":0" },
		"serve: -cluster requires -role=coordinator":                  func(c *RunConfig) { c.ClusterPath = "c.json" },
		"serve: -role=shard requires -rpc-addr":                       func(c *RunConfig) { c.Role = "shard" },
		"serve: -role=coordinator requires -cluster":                  func(c *RunConfig) { c.Role = "coordinator" },
		`serve: unknown -role "primary" (single, shard, coordinator)`: func(c *RunConfig) { c.Role = "primary" },
		"serve: a coordinator owns no data; -data and -snapshot-dir are for shard or single roles": func(c *RunConfig) {
			c.Role, c.ClusterPath, c.DataDir = "coordinator", "c.json", empty
		},
		"serve: -trace-rate must be in [0, 1]":               func(c *RunConfig) { c.TraceRate = 1.5 },
		"serve: -trace-export-url requires -trace-rate >= 0": func(c *RunConfig) { c.TraceExportURL = "http://127.0.0.1:1" },
		"serve: no .tsv files in " + empty:                   func(c *RunConfig) { c.DataDir = empty },
		"serve: cluster: open " + empty + "/c.json: no such file or directory": func(c *RunConfig) {
			c.Role, c.ClusterPath = "coordinator", empty+"/c.json"
		},
	} {
		if p, err := Start(procConfig(set)); err == nil || err.Error() != want {
			t.Errorf("Start = %v, %v; want error %q", p, err, want)
		}
	}
}

// TestProcessSingle is one single-role life and its warm restart: loud
// boot, ops-only pprof, the background checkpointer, the same addresses
// re-bound, -data ignored, the same bytes streamed.
func TestProcessSingle(t *testing.T) {
	defer noLeaks(t)()
	in, data := procData(t)
	snaps := t.TempDir()
	p := boot(t, func(c *RunConfig) {
		c.DataDir, c.SnapshotDir, c.OpsAddr, c.CheckpointEvery = data, snaps, "127.0.0.1:0", 20*time.Millisecond
	})
	addr, ops := p.Addr(), p.OpsAddr()

	// A taken ops port fails the boot instead of costing one log line.
	_, err := Start(procConfig(func(c *RunConfig) { c.OpsAddr = ops }))
	if err == nil || !strings.HasPrefix(err.Error(), "serve: ops listener: listen tcp "+ops) {
		t.Fatalf("Start on a taken ops port = %v", err)
	}
	if st, _, _ := call(t, ops, "/debug/pprof/cmdline", ""); st != 200 {
		t.Fatalf("pprof on the ops port = %d", st)
	}
	if st, _, _ := call(t, addr, "/debug/pprof/", ""); st != 404 {
		t.Fatalf("pprof on the API port = %d, want 404", st)
	}

	// The served stream equals a local cursor over the same instance.
	pq, err := engine.New(in, engine.Options{}).Register("q", engine.Spec{Query: procSpec.Query, Order: procSpec.Order})
	check(t, err)
	cur, err := pq.Cursor()
	check(t, err)
	var local strings.Builder
	for row, err := range cur.All(0, 10000) {
		check(t, err)
		fmt.Fprintf(&local, "%d\t%d\t%d\n", row[0], row[1], row[2])
	}
	pre := streamTSV(t, addr, 10000)
	if pre != local.String() {
		t.Fatal("the served NDJSON stream differs from the local cursor")
	}

	// The ticker checkpoints until the newest snapshot holds the loaded
	// version and the registration, then skips. A POST /v1/snapshots
	// counts as much as a tick: neither the ticks after it nor Shutdown
	// write another.
	waitUntil(t, "the background checkpoint", func() bool { return !p.e.Unsaved() })
	ticked := snapshots(t, snaps)
	cl, err := client.Dial(bg, "http://"+addr, nil)
	check(t, err)
	_, err = cl.Snapshot(bg)
	check(t, err)
	time.Sleep(5 * p.cfg.CheckpointEvery)
	shutdown(t, p)
	if n := snapshots(t, snaps); n != ticked+1 {
		t.Fatalf("%d snapshots after %d ticked, one posted, unchanged ticks and shutdown; want %d", n, ticked, ticked+1)
	}

	// Warm restart on the same addresses, from -snapshot-dir alone:
	// -data (a path that does not exist) is ignored.
	p = boot(t, func(c *RunConfig) {
		c.Addr, c.OpsAddr, c.SnapshotDir, c.DataDir = addr, ops, snaps, filepath.Join(data, "gone")
	})
	st, err := cl.Stats(bg)
	if err != nil || st.Tuples != in.Size() || st.WarmStructures < 1 || st.Prepared < 1 {
		t.Fatalf("stats after the warm restart: %+v, %v", st, err)
	}
	if streamTSV(t, addr, 10000) != pre {
		t.Fatal("the stream after the warm restart differs from the one before")
	}
	// A changed version is checkpointed on the way out.
	_, err = cl.Write(bg, client.Write{Relation: "R", Insert: [][]client.Value{{900001, 777777}}})
	check(t, err)
	shutdown(t, p)
	if n := snapshots(t, snaps); n != ticked+2 {
		t.Fatalf("%d snapshots after a write and shutdown, want %d", n, ticked+2)
	}
}

// TestProcessKeepsLateRegistrations: registering moves no version, yet a
// query registered after the last checkpoint is in the shutdown one — a
// warm restart lists it and answers it, with no explicit snapshot on the
// way.
func TestProcessKeepsLateRegistrations(t *testing.T) {
	_, data := procData(t)
	snaps := t.TempDir()
	p := boot(t, func(c *RunConfig) { c.DataDir, c.SnapshotDir = data, snaps })
	shutdown(t, p) // the loaded version's checkpoint
	p = boot(t, func(c *RunConfig) { c.SnapshotDir = snaps })
	_, pq := registerQ(t, p.Addr())
	want, err := pq.Access(bg, 0, pq.Info.Total-1)
	check(t, err)
	shutdown(t, p)
	if n := snapshots(t, snaps); n != 2 {
		t.Fatalf("%d snapshots after a registration and shutdown, want 2", n)
	}

	p = boot(t, func(c *RunConfig) { c.SnapshotDir = snaps })
	defer shutdown(t, p)
	cl, err := client.Dial(bg, "http://"+p.Addr(), nil)
	check(t, err)
	qs, err := cl.Queries(bg)
	check(t, err)
	if len(qs) != 1 || qs[0].Name != "q" {
		t.Fatalf("registrations after the restart: %+v", qs)
	}
	pq, err = cl.Prepared(bg, "q")
	check(t, err)
	got, err := pq.Access(bg, 0, pq.Info.Total-1)
	check(t, err)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("q after the restart answers %v, before it %v", got, want)
	}
}

// TestProcessSeededRebootKeepsWrites: a delete acknowledged before any
// checkpoint but the seed's survives a crash when -data seeds the same
// -snapshot-dir again: the seed snapshot wins over -data and the WAL
// replays over it.
func TestProcessSeededRebootKeepsWrites(t *testing.T) {
	crashAfterSeededDelete(t, func(c *RunConfig, data, snaps string) { c.DataDir, c.SnapshotDir = data, snaps })
}

// TestProcessSeedCheckpointed: booting a fresh -snapshot-dir from -data
// checkpoints the seed, so a reboot from -snapshot-dir alone serves the
// same tuples at the same version, not the WAL over an empty instance.
func TestProcessSeedCheckpointed(t *testing.T) {
	crashAfterSeededDelete(t, func(c *RunConfig, _, snaps string) { c.SnapshotDir = snaps })
}

// crashAfterSeededDelete boots -data into a fresh -snapshot-dir, deletes
// every copy of one row, crashes, reboots with reboot's flags, and
// requires the delete to be there.
func crashAfterSeededDelete(t *testing.T, reboot func(c *RunConfig, data, snaps string)) {
	in, data := procData(t)
	snaps := t.TempDir()
	p := boot(t, func(c *RunConfig) { c.DataDir, c.SnapshotDir = data, snaps })
	r := in.Relation("R")
	row, copies := r.Tuple(0), 0
	for i := 0; i < r.Len(); i++ {
		if slices.Equal(r.Tuple(i), row) {
			copies++
		}
	}
	cl, err := client.Dial(bg, "http://"+p.Addr(), nil)
	check(t, err)
	_, err = cl.Write(bg, client.Write{Relation: "R", Delete: [][]client.Value{row}})
	check(t, err)
	// A crash: the listener and the engine go, no checkpoint is written.
	check(t, p.api.Close())
	<-p.served
	check(t, p.release(true))
	if n := snapshots(t, snaps); n != 1 {
		t.Fatalf("%d snapshots before the reboot, want the seed's alone", n)
	}

	p = boot(t, func(c *RunConfig) { reboot(c, data, snaps) })
	defer shutdown(t, p)
	cl, err = client.Dial(bg, "http://"+p.Addr(), nil)
	check(t, err)
	st, err := cl.Stats(bg)
	check(t, err)
	if st.Tuples != in.Size()-copies || st.Version != 1 {
		t.Fatalf("after the reboot: %d tuples at version %d, want %d at version 1", st.Tuples, st.Version, in.Size()-copies)
	}
}

// TestProcessStalledReader: a reader stalled past the drain window is
// cut off; it costs Shutdown's error (cmd/serve's exit 1), never the
// shutdown checkpoint.
func TestProcessStalledReader(t *testing.T) {
	_, data := procData(t)
	snaps := t.TempDir()
	p := boot(t, func(c *RunConfig) { c.DataDir, c.SnapshotDir = data, snaps })
	_, pq := registerQ(t, p.Addr())
	_, _, body := call(t, p.Addr(), "/v1/queries/q/cursor", `{"start":0}`)
	_, id, ok := strings.Cut(body, `"cursor":"`)
	if id, _, _ = strings.Cut(id, `"`); !ok {
		t.Fatalf("cursor: %s", body)
	}
	conn, err := net.Dial("tcp", p.Addr())
	check(t, err)
	defer conn.Close()
	check(t, conn.(*net.TCPConn).SetReadBuffer(4096))
	fmt.Fprintf(conn, "GET /v1/cursors/%s/next?n=%d HTTP/1.1\r\nHost: x\r\nAccept: application/x-ndjson\r\n\r\n", id, pq.Info.Total)
	// "HTTP/1.1 200": the stream is in flight. Read no further.
	_, err = io.ReadFull(conn, make([]byte, 12))
	check(t, err)
	ctx, cancel := context.WithTimeout(bg, 50*time.Millisecond)
	defer cancel()
	if err := p.Shutdown(ctx); err == nil || !strings.Contains(err.Error(), "closed the remaining connections") {
		t.Fatalf("Shutdown past a stalled reader = %v", err)
	}
	if n := snapshots(t, snaps); n != 2 {
		t.Fatalf("%d snapshots after the cut-off drain, want the seed's and the shutdown checkpoint", n)
	}
}

// TestProcessCluster boots two shard nodes and a coordinator, checks
// that each role's wiring reaches /metrics, /readyz and /debug/traces,
// then stops one node under the coordinator.
func TestProcessCluster(t *testing.T) {
	defer noLeaks(t)()
	_, data := procData(t)
	var nodes [2]*Process
	for i := range nodes {
		nodes[i] = boot(t, func(c *RunConfig) {
			c.Role, c.RPCAddr, c.DataDir, c.OpsAddr, c.TraceRate = "shard", "127.0.0.1:0", data, "127.0.0.1:0", 0
		})
	}
	peer := [2]string{nodes[0].RPCAddr(), nodes[1].RPCAddr()}
	cfgPath := filepath.Join(t.TempDir(), "cluster.json")
	check(t, os.WriteFile(cfgPath, []byte(fmt.Sprintf(
		`{"shards": 4, "nodes": [{"addr": %q, "shards": [0, 2]}, {"addr": %q, "shards": [1, 3]}]}`, peer[0], peer[1])), 0o644))
	coord := boot(t, func(c *RunConfig) {
		c.Role, c.ClusterPath, c.OpsAddr, c.TraceRate = "coordinator", cfgPath, "127.0.0.1:0", 1
	})
	// Coordinator readiness is earned: the prober saw every node answer.
	waitUntil(t, "the coordinator's /readyz", func() bool { st, _, _ := call(t, coord.Addr(), "/readyz", ""); return st == 200 })

	// Two nodes loaded with the same TSVs answer as one.
	if streamTSV(t, coord.Addr(), 1000) != streamTSV(t, nodes[0].Addr(), 1000) {
		t.Fatal("the coordinator's stream differs from a node's own")
	}
	// Every node was sent a Prepare; the query partitions on its order's
	// leading variable, so the splitter table is read off the Prepares
	// and the stream need not reach both nodes with any other call.
	cm, nm := scrape(t, coord.Addr()), scrape(t, nodes[0].Addr())
	for _, a := range peer {
		if cm["ra_rpc_client_requests_total|method=prepare|peer="+a] < 1 || cm["ra_cluster_peer_up|peer="+a] != 1 {
			t.Fatalf("coordinator /metrics lacks peer %s's series: %v", a, cm)
		}
	}
	if nm["ra_rpc_server_requests_total|method=prepare"] < 1 {
		t.Fatalf("shard /metrics lacks the RPC server counters: %v", nm)
	}
	// One tracer per process reaches the HTTP middleware, the RPC clients
	// and servers and the ops listener: a node samples at rate 0, so what
	// its explorer lists arrived under the coordinator's sampled flag.
	for _, ops := range []string{coord.OpsAddr(), nodes[0].OpsAddr()} {
		waitUntil(t, "a stored trace on "+ops, func() bool {
			_, _, body := call(t, ops, "/debug/traces?limit=1", "")
			return strings.Contains(body, `"id"`)
		})
	}

	// One node stops: fail fast, say why, drop the gauge. (The spec is one
	// the coordinator never prepared, so no splitter table can settle the
	// search on the surviving node alone.)
	shutdown(t, nodes[1])
	st, retry, _ := call(t, coord.Addr(), "/v1/instance/access", `{"query": "`+twoPath+`", "order": "z, y, x", "ks": [0]}`)
	if st != 503 || retry == "" {
		t.Fatalf("access over a stopped node: %d, Retry-After %q", st, retry)
	}
	waitUntil(t, "/readyz to name the stopped node", func() bool {
		st, _, body := call(t, coord.Addr(), "/readyz", "")
		return st == 503 && strings.Contains(body, "shard node "+peer[1])
	})
	if up := scrape(t, coord.Addr())["ra_cluster_peer_up|peer="+peer[1]]; up != 0 {
		t.Fatalf("ra_cluster_peer_up for the stopped node = %v", up)
	}
	shutdown(t, coord)
	shutdown(t, nodes[0])
}
