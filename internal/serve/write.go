// write.go implements the batch mutation endpoint of the v1 surface.
//
//	POST /v1/write  {"writes": [{"relation": "R",
//	                             "insert": [[1,2], ...],
//	                             "delete": [[3,4], ...]}, ...]}
//
// One request is one atomic engine batch: every row lands (or none
// does), the whole group is durably WAL-appended before it applies, and
// the response carries the single new version the batch published.
// Prepared structures over untouched relations republish at that
// version without rebuilding; structures over written relations absorb
// the batch as a delta overlay when eligible (see /v1/stats delta_epochs
// vs delta_rebuilds).
package serve

import (
	"errors"
	"fmt"
	"net/http"
	"time"

	"rankedaccess/internal/delta"
	"rankedaccess/internal/values"
)

// writeEntry is one relation's rows in a write batch. Deletes apply
// after inserts of the same entry (they are separate mutations in one
// atomic batch; deleting a row the same batch inserted removes it).
type writeEntry struct {
	Relation string           `json:"relation"`
	Insert   [][]values.Value `json:"insert,omitempty"`
	Delete   [][]values.Value `json:"delete,omitempty"`
}

type writeRequest struct {
	Writes []writeEntry `json:"writes"`
}

type writeResponse struct {
	// Version is the engine version the batch published (the current
	// version when the batch was empty).
	Version uint64 `json:"version"`
	// Inserted and Deleted count rows requested, not rows that changed
	// the instance (deletes of absent rows are idempotent no-ops).
	Inserted int `json:"inserted"`
	Deleted  int `json:"deleted"`
}

func (s *server) handleWrite(w http.ResponseWriter, r *http.Request) {
	// A degraded engine (broken WAL, or an overlay backlog at the hard
	// rebuild threshold) sheds writes so it can catch up; reads keep
	// flowing from published epochs meanwhile.
	if s.shedWrite(w, r) {
		return
	}
	var req writeRequest
	if !s.decode(w, r, &req) {
		return
	}
	var muts []delta.Mutation
	inserted, deleted := 0, 0
	for _, ent := range req.Writes {
		if ent.Relation == "" {
			fail(w, http.StatusBadRequest, errors.New("serve: write entry without a relation"))
			return
		}
		ins, err := flatMutation(delta.OpInsert, ent.Relation, ent.Insert)
		if err != nil {
			fail(w, http.StatusBadRequest, err)
			return
		}
		del, err := flatMutation(delta.OpDelete, ent.Relation, ent.Delete)
		if err != nil {
			fail(w, http.StatusBadRequest, err)
			return
		}
		if ins != nil {
			muts = append(muts, *ins)
			inserted += len(ent.Insert)
		}
		if del != nil {
			muts = append(muts, *del)
			deleted += len(ent.Delete)
		}
	}
	if len(muts) == 0 {
		// An empty batch publishes nothing: echo the current version.
		reply(w, writeResponse{Version: s.e.Version()})
		return
	}
	v, err := s.e.ApplyBatchCtx(r.Context(), muts)
	if err != nil {
		// A broken WAL fails every write until repair: that is server
		// overload/unavailability, not a bad request.
		if errors.Is(err, delta.ErrWALBroken) {
			setRetryAfter(w, time.Second)
			fail(w, http.StatusServiceUnavailable, err)
			return
		}
		fail(w, http.StatusBadRequest, err)
		return
	}
	reply(w, writeResponse{Version: v, Inserted: inserted, Deleted: deleted})
}

// flatMutation flattens row slices into one mutation record, checking
// the rows agree on one arity (nil for an empty set).
func flatMutation(op delta.Op, rel string, rows [][]values.Value) (*delta.Mutation, error) {
	if len(rows) == 0 {
		return nil, nil
	}
	arity := len(rows[0])
	if arity == 0 {
		return nil, fmt.Errorf("serve: %s %s: empty row", op, rel)
	}
	flat := make([]values.Value, 0, len(rows)*arity)
	for _, row := range rows {
		if len(row) != arity {
			return nil, fmt.Errorf("serve: %s %s: rows of arity %d and %d in one entry", op, rel, arity, len(row))
		}
		flat = append(flat, row...)
	}
	return &delta.Mutation{Op: op, Rel: rel, Arity: arity, Rows: flat}, nil
}
