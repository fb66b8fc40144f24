package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"rankedaccess"
	"rankedaccess/client"
	"rankedaccess/internal/cluster"
	"rankedaccess/internal/metrics"
)

// bootDeadline bounds how long a server may take to load its TSVs and
// answer /readyz.
const bootDeadline = 60 * time.Second

// deployment is one booted shape of the program under test, ready for
// its first measured operation.
type deployment struct {
	data    *dataset
	t       target
	total   int64
	control target // the control measured beside the product (control.go)

	// Process shapes only.
	api      *proc   // the process clients talk to (server, or coordinator)
	apiAddr  string  // its HTTP address
	state    []*proc // processes holding engine state: the server, or the shard nodes
	nodeAddr []string
	cl       *client.Client
	snapDir  string // http_mixed_rw: the -snapshot-dir, reused by the crash check

	closers []func()
}

func (d *deployment) close() {
	for i := len(d.closers) - 1; i >= 0; i-- {
		d.closers[i]()
	}
}

// peakRSS sums VmHWM over the processes holding engine state; for the
// embedded shape that is the harness itself.
func (d *deployment) peakRSS() float64 {
	if len(d.state) == 0 {
		return peakRSSMB(0)
	}
	var mb float64
	for _, p := range d.state {
		mb += peakRSSMB(p.pid())
	}
	return mb
}

// sdk dials addr with the benchmark's client settings: retries off (a
// shed request must count as failed, not be hidden by a retry) and at
// most conns connections.
func sdk(ctx context.Context, addr string, conns int) (*client.Client, func(), error) {
	tr := &http.Transport{MaxIdleConns: conns, MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns}
	cl, err := client.Dial(ctx, "http://"+addr, &client.Options{
		HTTPClient: &http.Client{Transport: tr},
		MaxRetries: -1,
	})
	return cl, tr.CloseIdleConnections, err
}

var clientSpec = client.Spec{Query: queryText, Order: orderText}

// setupEmbedded is the library path: generate the instance, hand it to
// an engine, register the query (which runs the preprocessing).
func setupEmbedded(_ context.Context, _ *env, seed int64, n int, _ string) (*deployment, error) {
	data, err := generate(seed, n)
	if err != nil {
		return nil, err
	}
	eng := rankedaccess.NewEngine(data.in, rankedaccess.EngineOptions{})
	pq, err := eng.Register(queryName, rankedaccess.EngineSpec{Query: queryText, Order: orderText})
	if err != nil {
		return nil, err
	}
	d := &deployment{data: data, t: embedded{pq}}
	d.closers = append(d.closers, func() { _ = eng.Close() })
	d.total, err = d.t.count(context.Background())
	return d, err
}

// bootServer starts one cmd/serve process on TSVs written to dir/data
// and waits for /readyz.
func bootServer(ctx context.Context, e *env, d *deployment, name string, extra ...string) (*proc, string, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, "", err
	}
	args := append([]string{"-addr", addr}, extra...)
	p, err := e.spawn(e.serveBin, name, args...)
	if err != nil {
		return nil, "", err
	}
	d.closers = append(d.closers, p.stop)
	return p, addr, waitReady(ctx, p, addr, bootDeadline)
}

// connect dials the API process and registers the query; for a server
// that is where preprocessing happens.
func (d *deployment) connect(ctx context.Context, e *env, spec client.Spec) error {
	cl, closeIdle, err := sdk(ctx, d.apiAddr, e.nproc)
	if err != nil {
		return err
	}
	d.cl = cl
	d.closers = append(d.closers, closeIdle)
	p, err := cl.Register(ctx, queryName, spec)
	if err != nil {
		return fmt.Errorf("register: %w", err)
	}
	d.t, d.total = remote{p}, p.Info.Total
	return nil
}

// setupSingle boots one cmd/serve on generated TSVs. With durable set
// it gets a -snapshot-dir, so writes go through the WAL (append + fsync
// per batch), and one checkpoint is taken after registering: a TSV load
// is durable only through a checkpoint, and the crash check later
// reboots from this directory alone.
func setupSingle(durable bool) setupFunc {
	return func(ctx context.Context, e *env, seed int64, n int, dir string) (*deployment, error) {
		data, err := generate(seed, n)
		if err != nil {
			return nil, err
		}
		if err := data.writeTSV(filepath.Join(dir, "data")); err != nil {
			return nil, err
		}
		d := &deployment{data: data}
		args := []string{"-data", data.dir}
		if durable {
			d.snapDir = filepath.Join(dir, "snap")
			args = append(args, "-snapshot-dir", d.snapDir)
		}
		d.api, d.apiAddr, err = bootServer(ctx, e, d, "serve", args...)
		if err != nil {
			d.close()
			return nil, err
		}
		d.state = []*proc{d.api}
		if err := d.connect(ctx, e, clientSpec); err != nil {
			d.close()
			return nil, err
		}
		if durable {
			if _, err := d.cl.Snapshot(ctx); err != nil {
				d.close()
				return nil, fmt.Errorf("checkpoint: %w", err)
			}
		}
		return d, nil
	}
}

// shardOwners is the cluster placement both the cluster_read workload
// and the ladder's cluster rung use: 4 shards, two nodes.
var shardOwners = [][]int{{0, 2}, {1, 3}}

// clusterLayout is the coordinator's config for nodes answering RARC on
// the given addresses, one per entry of shardOwners.
func clusterLayout(rpcAddrs []string) cluster.Config {
	cfg := cluster.Config{Shards: 4}
	for i, addr := range rpcAddrs {
		cfg.Nodes = append(cfg.Nodes, cluster.NodeConfig{Addr: addr, Shards: shardOwners[i]})
	}
	return cfg
}

// setupCluster boots two shard nodes, each loaded with the full TSVs
// and owning shards {0,2} and {1,3} of 4, and a coordinator over them.
func setupCluster(ctx context.Context, e *env, seed int64, n int, dir string) (*deployment, error) {
	data, err := generate(seed, n)
	if err != nil {
		return nil, err
	}
	if err := data.writeTSV(filepath.Join(dir, "data")); err != nil {
		return nil, err
	}
	d := &deployment{data: data}
	fail := func(err error) (*deployment, error) { d.close(); return nil, err }

	var rpcAddrs []string
	for i := range shardOwners {
		rpcAddr, err := freeAddr()
		if err != nil {
			return fail(err)
		}
		p, addr, err := bootServer(ctx, e, d, fmt.Sprintf("node%d", i), "-role=shard", "-rpc-addr", rpcAddr, "-data", data.dir)
		if err != nil {
			return fail(err)
		}
		d.state = append(d.state, p)
		d.nodeAddr = append(d.nodeAddr, addr)
		rpcAddrs = append(rpcAddrs, rpcAddr)
	}
	raw, err := json.Marshal(clusterLayout(rpcAddrs))
	if err != nil {
		return fail(err)
	}
	cfgPath := filepath.Join(dir, "cluster.json")
	if err := os.WriteFile(cfgPath, raw, 0o644); err != nil {
		return fail(err)
	}
	d.api, d.apiAddr, err = bootServer(ctx, e, d, "coordinator", "-role=coordinator", "-cluster", cfgPath)
	if err != nil {
		return fail(err)
	}
	spec := clientSpec
	spec.Shards = 4
	if err := d.connect(ctx, e, spec); err != nil {
		return fail(err)
	}
	return d, nil
}

// setupFunc boots one deployment shape for (seed, n), writing whatever
// files it needs under dir.
type setupFunc func(ctx context.Context, e *env, seed int64, n int, dir string) (*deployment, error)

// fetchMetrics scrapes and parses GET /metrics of one process.
func fetchMetrics(ctx context.Context, addr string) (scrape, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+addr+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics on %s: %s", addr, resp.Status)
	}
	return metrics.ParseText(resp.Body)
}

// observation is everything sampled from outside the processes at one
// instant: their /metrics, their CPU time, and the harness's own.
type observation struct {
	api     scrape
	nodes   []scrape
	apiCPU  float64
	nodeCPU float64
	selfCPU float64
}

// observe samples the deployment; a no-op shape (embedded) yields only
// the harness's CPU.
func (d *deployment) observe(ctx context.Context) (observation, error) {
	o := observation{selfCPU: selfCPUSeconds()}
	if d.api == nil {
		return o, nil
	}
	var err error
	if o.api, err = fetchMetrics(ctx, d.apiAddr); err != nil {
		return o, err
	}
	o.apiCPU = cpuSeconds(d.api.pid())
	for i, addr := range d.nodeAddr {
		s, err := fetchMetrics(ctx, addr)
		if err != nil {
			return o, err
		}
		o.nodes = append(o.nodes, s)
		o.nodeCPU += cpuSeconds(d.state[i].pid())
	}
	return o, nil
}
