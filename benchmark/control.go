package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"slices"
	"syscall"
	"time"
)

// The control is what makes a run's timings comparable with another
// run's on a box whose pace changes under it. This VM is a few cores of
// a shared host, and work that crosses process boundaries runs 20–40 %
// slower for minutes at a time when a neighbour is busy: ten runs of
// one commit gave 25.9 k, 25.1 k, 17.8 k, 13.9 k point reads/s. No run
// length the contract allows averages that out, so every run carries
// its own control: a second process, built from the benchmark's own
// files on the standard library alone, that answers requests of the
// same shape (JSON over loopback HTTP, one tuple or 512) with no
// product code behind them. The load generator's clients alternate
// between the product and the control every tenth of a second, all
// together, and a slice's product throughput and latency are scaled by
// how far the control's own, in that same slice, were from the
// control's fixed nominal pace. What the host does to
// both cancels; what a change to the product does shows in full,
// because the control contains none of it.

// controlFlag as the first argument turns the benchmark binary into the
// control server; the harness spawns itself that way.
const controlFlag = "-control-server"

// serverNominal and memNominal are the two controls' pace on the box
// and Go version the benchmark was introduced on, when the host was
// quiet: the fixed point every correction factor refers to. The values
// only set the scale of the corrected numbers; they are constants of
// the harness, identical on every commit.
var (
	// The control server, per request, from nproc clients.
	serverNominal = map[string]sliceStat{
		"point": {unitsPerS: 13500, p50: 125},
		"range": {unitsPerS: 2400, p50: 740},
	}
	// The in-process control: per probe of a 256-probe batch, and per
	// 512-row window.
	memNominal = map[string]sliceStat{
		"point": {unitsPerS: 2.9e6, p50: 0.66},
		"range": {unitsPerS: 60000, p50: 33},
	}
)

// nominal is the nominal pace of the deployment's control in the given
// phase.
func (d *deployment) nominal(phase string) sliceStat {
	if d.api == nil {
		return memNominal[phase]
	}
	return serverNominal[phase]
}

type controlAnswer struct {
	K     int64   `json:"k"`
	Tuple []int64 `json:"tuple"`
}

// controlTuple is the control's answer for rank k: three values of the
// size the generated data has, so the bodies are as long as the
// product's.
func controlTuple(k int64) []int64 {
	return []int64{k >> 24 & 0xffff, k >> 12 & 0xffff, k & 0xffff}
}

// controlHandler answers the two request shapes the workloads send,
// with the product's JSON field names.
func controlHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {})
	mux.HandleFunc("POST /access", func(w http.ResponseWriter, r *http.Request) {
		var in struct {
			Ks []int64 `json:"ks"`
		}
		if err := json.NewDecoder(r.Body).Decode(&in); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		var out struct {
			Answers []controlAnswer `json:"answers"`
		}
		for _, k := range in.Ks {
			out.Answers = append(out.Answers, controlAnswer{k, controlTuple(k)})
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(out)
	})
	mux.HandleFunc("POST /range", func(w http.ResponseWriter, r *http.Request) {
		var in struct {
			K0 int64 `json:"k0"`
			K1 int64 `json:"k1"`
		}
		if err := json.NewDecoder(r.Body).Decode(&in); err != nil || in.K1 < in.K0 || in.K1-in.K0 > 1<<20 {
			http.Error(w, "bad window", http.StatusBadRequest)
			return
		}
		var out struct {
			Tuples [][]int64 `json:"tuples"`
		}
		for k := in.K0; k < in.K1; k++ {
			out.Tuples = append(out.Tuples, controlTuple(k))
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(out)
	})
	return mux
}

// controlServer runs the control until SIGTERM.
func controlServer(addr string) int {
	srv := &http.Server{Addr: addr, Handler: controlHandler()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(sctx)
	}()
	if err := srv.ListenAndServe(); err != http.ErrServerClosed {
		fmt.Fprintln(os.Stderr, "control:", err)
		return 1
	}
	return 0
}

// controlTarget is the control as the load generator sees it: the same
// target interface the product's deployments have, so the same
// operations drive both.
type controlTarget struct {
	hc   *http.Client
	base string
}

// startControl spawns the control server and dials it with as many
// connections as the product's clients get.
func startControl(ctx context.Context, e *env, d *deployment) (target, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	p, err := e.spawn(self, "control", controlFlag, addr)
	if err != nil {
		return nil, err
	}
	d.closers = append(d.closers, p.stop)
	if err := waitReady(ctx, p, addr, bootDeadline); err != nil {
		return nil, err
	}
	tr := &http.Transport{MaxIdleConns: e.nproc, MaxIdleConnsPerHost: e.nproc, MaxConnsPerHost: e.nproc}
	d.closers = append(d.closers, tr.CloseIdleConnections)
	return controlTarget{hc: &http.Client{Transport: tr}, base: "http://" + addr}, nil
}

func (t controlTarget) post(ctx context.Context, path string, in, out any) error {
	raw, err := json.Marshal(in)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, t.base+path, bytes.NewReader(raw))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := t.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<10))
		return fmt.Errorf("control %s: %s: %s", path, resp.Status, msg)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func (t controlTarget) point(ctx context.Context, dst []int64, k int64) ([]int64, error) {
	in := struct {
		Ks []int64 `json:"ks"`
	}{[]int64{k}}
	var out struct {
		Answers []controlAnswer `json:"answers"`
	}
	if err := t.post(ctx, "/access", in, &out); err != nil {
		return dst, err
	}
	if len(out.Answers) != 1 || out.Answers[0].K != k {
		return dst, fmt.Errorf("control access(%d): unexpected answers %+v", k, out.Answers)
	}
	return append(dst, out.Answers[0].Tuple...), nil
}

func (t controlTarget) window(ctx context.Context, dst []int64, k0, k1 int64) ([]int64, error) {
	in := struct {
		K0 int64 `json:"k0"`
		K1 int64 `json:"k1"`
	}{k0, k1}
	var out struct {
		Tuples [][]int64 `json:"tuples"`
	}
	if err := t.post(ctx, "/range", in, &out); err != nil {
		return dst, err
	}
	for _, r := range out.Tuples {
		dst = append(dst, r...)
	}
	return dst, nil
}

func (t controlTarget) count(context.Context) (int64, error) { return controlRanks, nil }

// memControl is the control of the embedded workload, where no process
// boundary is crossed and what the host's pace changes is the speed of
// the cores and of memory: three sorted arrays the size of the
// benchmark's relations, and per probe one binary search in each — the
// shape of a descent through the access structure, with no product code
// in it.
type memControl [width][]int64

func newMemControl(n int) *memControl {
	var c memControl
	x := uint64(0x9E3779B97F4A7C15)
	for j := range c {
		c[j] = make([]int64, n)
		for i := range c[j] {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			c[j][i] = int64(x >> 1)
		}
		slices.Sort(c[j])
	}
	return &c
}

func (c *memControl) point(_ context.Context, dst []int64, k int64) ([]int64, error) {
	key := uint64(k)
	for j := range c {
		key *= 0x9E3779B97F4A7C15 // a different key at every level
		i, _ := slices.BinarySearch(c[j], int64(key>>1))
		dst = append(dst, int64(i))
	}
	return dst, nil
}

// window is the control of the range phase, where the product walks
// consecutive answers and is bound by the core, not by memory: per row
// one binary search in a stretch of the first array short enough to
// stay in the nearest cache, and the next value of the other two.
// (Against AccessRange on one incarnation, 2.4 s at a time, the ratio to
// this control varied by 1.1 %, to the point control by 2.1 %, to a
// plain sequential copy by 3.9 %.)
func (c *memControl) window(_ context.Context, dst []int64, k0, k1 int64) ([]int64, error) {
	rows := int(k1 - k0)
	if rows < 1 || rows > len(c[0])/2 {
		return dst, fmt.Errorf("control window of %d rows", rows)
	}
	key := uint64(k0) * 0x9E3779B97F4A7C15
	b := int(key % uint64(len(c[0])-rows))
	near := c[0][b : b+rows]
	span := uint64(near[rows-1]-near[0]) + 1
	for i := 0; i < rows; i++ {
		key *= 0x9E3779B97F4A7C15
		j, _ := slices.BinarySearch(near, near[0]+int64(key%span))
		dst = append(dst, int64(j), c[1][b+i], c[2][b+i])
	}
	return dst, nil
}

func (c *memControl) count(context.Context) (int64, error) { return controlRanks, nil }
