// snapshots.go implements the durability endpoints, mounted when the
// server is configured with a snapshot directory:
//
//	POST /v1/snapshots                create a checkpoint now
//	GET  /v1/snapshots                list snapshots, newest first
//	POST /v1/snapshots/{name}/restore replace live state from a snapshot
//
// A checkpoint persists the instance, every persistable built
// structure, and the prepared-query registry; a restore swaps them in
// with a strictly-forward version bump, so cursors and handles opened
// before the restore fail the same way they do on any other mutation
// (410 Gone) instead of silently mixing datasets.
package serve

import (
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"

	"rankedaccess/internal/api"
	"rankedaccess/internal/engine"
	"rankedaccess/internal/snapshot"
)

func handleSnapshotCreate(e *engine.Engine, dir string, w http.ResponseWriter, _ *http.Request) {
	info, err := e.Checkpoint(dir)
	if err != nil {
		fail(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusCreated, info)
}

func handleSnapshotList(dir string, w http.ResponseWriter, _ *http.Request) {
	infos, err := snapshot.List(dir)
	if err != nil {
		fail(w, http.StatusInternalServerError, err)
		return
	}
	if infos == nil {
		infos = []snapshot.Info{}
	}
	reply(w, api.SnapshotList{Snapshots: infos})
}

func handleSnapshotRestore(e *engine.Engine, dir string, w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if !snapshot.ValidName(name) {
		fail(w, http.StatusBadRequest, fmt.Errorf("serve: %q is not a snapshot name", name))
		return
	}
	path := filepath.Join(dir, name)
	if _, err := os.Stat(path); err != nil {
		fail(w, http.StatusNotFound, fmt.Errorf("serve: no snapshot %q", name))
		return
	}
	info, err := e.Restore(path)
	if err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, snapshot.ErrCorrupt) || errors.Is(err, snapshot.ErrBadMagic) ||
			errors.Is(err, snapshot.ErrBadVersion) || errors.Is(err, snapshot.ErrForeignByteOrder) {
			status = http.StatusUnprocessableEntity
		}
		fail(w, status, err)
		return
	}
	reply(w, info)
}
