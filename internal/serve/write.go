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

	"rankedaccess/internal/api"
	"rankedaccess/internal/delta"
	"rankedaccess/internal/values"
)

func (s *server) handleWrite(w http.ResponseWriter, r *http.Request) {
	// A degraded engine (broken WAL, or an overlay backlog at the hard
	// rebuild threshold) sheds writes so it can catch up; reads keep
	// flowing from published epochs meanwhile.
	if s.shedWrite(w, r) {
		return
	}
	var req api.WriteRequest
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
		reply(w, api.WriteResult{Version: s.e.Version()})
		return
	}
	v, err := s.e.ApplyBatchCtx(r.Context(), muts)
	if err != nil {
		failErr(w, err)
		return
	}
	reply(w, api.WriteResult{Version: v, Inserted: inserted, Deleted: deleted})
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
