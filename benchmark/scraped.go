package main

import "sort"

// scraped assembles the per-layer metrics whose source is outside the
// processes — /metrics deltas over the measured window, /proc CPU
// times, the clients' own timelines — and enforces the zeros the
// workload definitions promise. The point phase is the window for
// everything expressed per operation; counters that must not move are
// taken over the whole run.
func scraped(res *result, chk *checker, w *workloadDef, dep *deployment, rd *round) {
	phases, writes, obs, overlayMax := rd.phases, rd.writes, rd.obs, rd.overlayMax
	start, afterPoint, end := obs["start"], obs["point"], obs[w.phases[len(w.phases)-1].name]
	pt := phases["point"]
	ops := float64(max(pt.units(), 1))

	// Stalls and generator health come from the clients' timelines.
	stall := pt.stalled + phases["range"].stalled
	res.setLayer("engine.read_stall_s", stall)
	var late []float64
	for _, p := range phases {
		for i := range p.logs {
			for _, ns := range p.logs[i].late {
				late = append(late, float64(ns)/1e3)
			}
		}
	}
	if writes != nil {
		for _, ns := range writes.logs[0].late {
			late = append(late, float64(ns)/1e3)
		}
	}
	sort.Float64s(late)
	res.setLayer("loadgen.late_p99_us", quantile(late, tailQuantile(len(late))))

	selfCPU := (afterPoint.selfCPU - start.selfCPU) * pt.share() // the rest drove the control
	serverCPU := (afterPoint.apiCPU - start.apiCPU) + (afterPoint.nodeCPU - start.nodeCPU)
	share := 1.0
	if dep.api != nil {
		share = selfCPU / max(selfCPU+serverCPU, 1e-9)
		if share > 0.5 {
			res.notes = append(res.notes, "flag: loadgen.cpu_share > 0.5 — this run measured the generator as much as the program")
		}
	}
	res.setLayer("loadgen.cpu_share", share)

	// Everything below needs a /metrics endpoint; on the embedded shape
	// the series do not exist and the metrics are reported as 0.
	if dep.api == nil {
		return
	}
	delta := func(a, b scrape, name string, labels ...string) float64 {
		return b.sum(name, labels...) - a.sum(name, labels...)
	}

	// Engine write-path counters live where the engine state lives: the
	// single server, or the shard nodes.
	engineDelta := func(name string) float64 {
		if len(dep.nodeAddr) == 0 {
			return delta(start.api, end.api, name)
		}
		var d float64
		for i := range start.nodes {
			d += delta(start.nodes[i], end.nodes[i], name)
		}
		return d
	}
	walBatches := engineDelta("ra_engine_wal_batches_total")
	epochs := engineDelta("ra_engine_delta_epochs_total")
	skips := engineDelta("ra_engine_delta_skips_total")
	syncRebuilds := engineDelta("ra_engine_delta_rebuilds_total")
	bgRebuilds := engineDelta("ra_engine_bg_rebuilds_total")
	res.setLayer("delta.wal_batches", walBatches)
	res.setLayer("engine.delta_epochs_per_write", epochs/max(walBatches, 1))
	res.setLayer("engine.bg_rebuilds", bgRebuilds)
	res.setLayer("engine.sync_rebuilds", syncRebuilds)
	res.setLayer("engine.overlay_edits_max", overlayMax)
	chk.checked++
	if !w.writes && walBatches+epochs+skips+syncRebuilds+bgRebuilds != 0 {
		chk.fail("%s is read-only but the engine's write path moved: wal_batches %+g delta_epochs %+g delta_skips %+g delta_rebuilds %+g bg_rebuilds %+g",
			w.name, walBatches, epochs, skips, syncRebuilds, bgRebuilds)
	}

	// The serve layer of the process clients talk to, point phase.
	const endpoint = "query_access"
	reqs := delta(start.api, afterPoint.api, "ra_http_requests_total", "endpoint", endpoint)
	hist := histDelta(start.api, afterPoint.api, "ra_http_request_duration_seconds", "endpoint", endpoint)
	serverP50 := histQuantile(hist, 0.5) * 1e6
	res.setLayer("serve.server_p50_us", serverP50)
	res.setLayer("serve.server_p99_us", histQuantile(hist, 0.99)*1e6)
	shed := delta(start.api, end.api, "ra_serve_shed_rate_limited_total") + delta(start.api, end.api, "ra_serve_shed_overload_total")
	allReqs := delta(start.api, end.api, "ra_http_requests_total")
	res.setLayer("serve.shed_ratio", shed/max(allReqs, 1))
	hits := delta(start.api, end.api, "ra_serve_coalesce_hits_total")
	misses := delta(start.api, end.api, "ra_serve_coalesce_misses_total")
	hitRatio := hits / max(hits+misses, 1)
	res.setLayer("serve.coalesce_hit_ratio", hitRatio)
	chk.checked++
	if hitRatio > 0.01 {
		chk.fail("%s draws ranks uniformly, yet the coalescer hit on %.3f of requests", w.name, hitRatio)
	}
	chk.checked++
	if reqs < ops {
		chk.fail("%s: server counted %g %s requests, clients completed %g", w.name, reqs, endpoint, ops)
	}
	apiCPU := (afterPoint.apiCPU - start.apiCPU) * 1e6 / ops
	clientP50 := median(pt.latencies(1e3))
	res.setLayer("client.wire_tax_us", clientP50-serverP50)

	// RPC and cluster series exist only on the cluster shape; their
	// presence anywhere else is a leak between roles.
	if len(dep.nodeAddr) == 0 {
		res.setLayer("serve.cpu_us_per_op", apiCPU)
		chk.checked++
		if end.api.has("ra_rpc_") || end.api.has("ra_cluster_") {
			chk.fail("%s is single-node but exports RPC or cluster series", w.name)
		}
		return
	}
	nodeCPU := (afterPoint.nodeCPU - start.nodeCPU) * 1e6 / ops
	res.setLayer("serve.cpu_us_per_op", apiCPU+nodeCPU)
	res.setLayer("cluster.coord_cpu_us_per_op", apiCPU)
	res.setLayer("cluster.node_cpu_us_per_op", nodeCPU)
	rankCalls := delta(start.api, afterPoint.api, "ra_rpc_client_requests_total", "method", "rank")
	res.setLayer("rpc.rank_calls_per_access", rankCalls/ops)
	res.setLayer("rpc.client_p50_us", histQuantile(histDelta(start.api, afterPoint.api, "ra_rpc_client_latency_seconds"), 0.5)*1e6)
	var nodeHist []bucket
	for i := range start.nodes {
		h := histDelta(start.nodes[i], afterPoint.nodes[i], "ra_rpc_server_duration_seconds")
		if nodeHist == nil {
			nodeHist = h
			continue
		}
		for j := range h {
			nodeHist[j].count += h[j].count
		}
	}
	res.setLayer("rpc.server_p50_us", histQuantile(nodeHist, 0.5)*1e6)
	res.setLayer("rpc.errors", delta(start.api, end.api, "ra_rpc_client_errors_total"))
}
