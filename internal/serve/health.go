// health.go implements the probe endpoints:
//
//	GET /healthz   liveness — the process is up and serving HTTP
//	GET /readyz    readiness — the engine can do useful work right now
//
// Liveness is unconditional (if the handler runs, the process lives).
// Readiness is gated on the conditions under which sending this server
// traffic is a mistake: a broken WAL (writes will fail), a delta
// overlay backlog at the hard rebuild threshold (reads are about to
// convoy behind synchronous rebuilds), or an unwritable snapshot
// directory (checkpoints will fail). Both bypass admission control —
// an orchestrator must be able to probe an overloaded server, and
// readiness flipping false under overload is how load gets routed away.
package serve

import (
	"fmt"
	"net/http"
	"os"
	"time"
)

type healthzResponse struct {
	Status string `json:"status"`
}

func (s *server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	reply(w, healthzResponse{Status: "ok"})
}

type readyzResponse struct {
	Ready   bool     `json:"ready"`
	Reasons []string `json:"reasons,omitempty"`
}

func (s *server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	// Fresh sample, not the request-path cache: probes are low-QPS and
	// an orchestrator deserves the current answer.
	reasons := s.e.Health().Reasons()
	if dir := s.cfg.SnapshotDir; dir != "" {
		if err := probeWritable(dir); err != nil {
			reasons = append(reasons, fmt.Sprintf("snapshot dir not writable: %v", err))
		}
	}
	if s.cfg.ReadyCheck != nil {
		reasons = append(reasons, s.cfg.ReadyCheck()...)
	}
	if len(reasons) > 0 {
		setRetryAfter(w, time.Second)
		writeJSON(w, http.StatusServiceUnavailable, readyzResponse{Ready: false, Reasons: reasons})
		return
	}
	reply(w, readyzResponse{Ready: true})
}

// probeWritable verifies the directory accepts new files by creating
// and removing one — the same operations a checkpoint performs, so
// readiness reflects what a checkpoint would actually hit.
func probeWritable(dir string) error {
	f, err := os.CreateTemp(dir, ".readyz-*")
	if err != nil {
		return err
	}
	name := f.Name()
	_ = f.Close()
	return os.Remove(name)
}
