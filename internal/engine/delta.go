package engine

import (
	"context"
	"log/slog"
	"time"

	"rankedaccess/internal/access"
	"rankedaccess/internal/delta"
	"rankedaccess/internal/order"
	"rankedaccess/internal/tupleidx"
)

// This file is the engine's catch-up path: advancing a structure built
// at an old instance version to the current one without (usually)
// rebuilding it. The caller holds mu.RLock, so the instance and version
// are stable throughout.

// advance tries to bring a stale handle to the given version, returning
// nil when only a full rebuild can (truncated log tail, an
// overlay-ineligible structure, or a delta past the hard limit).
func (e *Engine) advance(s Spec, key string, stale *Handle, version uint64) *Handle {
	start := time.Now()
	batches, ok := e.wlog.Since(stale.version)
	if !ok || stale.rels == nil {
		e.deltaRebuilds.Add(1)
		return nil
	}
	touched := false
	for i := range batches {
		if batches[i].Touches(stale.rels) {
			touched = true
			break
		}
	}
	if !touched {
		// The writes cannot have changed this query's answers: republish
		// the same structure (overlay and all) as the new epoch. This is
		// what keeps mutations of relation A from invalidating prepared
		// queries over relation B.
		nh := *stale
		nh.version = version
		e.deltaSkips.Add(1)
		return &nh
	}
	base := stale.st
	if stale.ov != nil {
		base = stale.ov.Base()
	} else if !overlayEligible(stale) {
		e.deltaRebuilds.Add(1)
		return nil
	}
	sp := delta.CollectSpan(batches, stale.rels)
	member := func(a order.Answer) bool {
		_, m := stale.st.Rank(a)
		return m
	}
	adds, dels := delta.Diff(stale.Query, e.in, sp, member, e.idx)
	newAdds, newDels := mergeEdits(stale, adds, dels)
	if len(newAdds)+len(newDels) > e.deltaHard {
		e.deltaRebuilds.Add(1)
		return nil
	}
	ov, err := access.NewOverlay(base, newAdds, newDels)
	if err != nil {
		// Construction errors mean the delta disagrees with the base
		// (should not happen); a rebuild restores a known-good state.
		e.deltaRebuilds.Add(1)
		return nil
	}
	nh := *stale
	nh.version = version
	nh.st, nh.ov = ov, ov
	nh.ovAdds, nh.ovDels = newAdds, newDels
	e.deltaEpochs.Add(1)
	if h := e.catchupSeconds.Load(); h != nil {
		h.ObserveDuration(time.Since(start))
	}
	if ov.Edits() > e.deltaSoft {
		e.spawnRebuild(s, key)
	}
	return &nh
}

// overlayEligible reports whether an overlay can merge over the
// handle's structure: a coordinator handle (sh) merges remote parts and
// takes no writes, FD-extended handles carry extended answer spaces the
// answer-level delta cannot edit, Boolean queries have no answer
// tuples, and SUM-ordered handles qualify only when every summed
// variable is a head variable (delta answers zero the existential
// slots, which would corrupt weights otherwise). These are
// access.BaseOfLex's conditions and more, read off the spec.
func overlayEligible(h *Handle) bool {
	return h.sh == nil && len(h.spec.FDs) == 0 && len(h.Query.Head) > 0 && sumByInHead(h)
}

// sumByInHead reports whether every summed variable of the handle's
// spec is a head variable of its query.
func sumByInHead(h *Handle) bool {
	for _, name := range h.spec.SumBy {
		id, ok := h.Query.VarByName(name)
		if !ok {
			return false
		}
		inHead := false
		for _, v := range h.Query.Head {
			if v == id {
				inHead = true
				break
			}
		}
		if !inHead {
			return false
		}
	}
	return true
}

// mergeEdits folds a fresh answer-level diff into the handle's existing
// edit sets, flattening cancellations: an answer that reappears erases
// its pending delete, one that disappears erases its pending add. The
// returned sets are always relative to the handle's BASE structure, so
// the overlay never chains. Every edit is keyed on its head columns in
// one tupleidx, and the sets come back in first-seen order.
func mergeEdits(h *Handle, adds, dels []order.Answer) (newAdds, newDels []order.Answer) {
	head := make([]int, len(h.Query.Head))
	for i, v := range h.Query.Head {
		head[i] = int(v)
	}
	n := len(h.ovAdds) + len(h.ovDels) + len(adds) + len(dels)
	keys := tupleidx.New(len(head), n)
	edit := make([]order.Answer, 0, n) // per key id: the pending edit's answer
	added := make([]int8, 0, n)        // per key id: +1 add, -1 delete, 0 none
	fold := func(a order.Answer, sign int8) {
		id, fresh := keys.InsertCols(a, head)
		if fresh {
			edit, added = append(edit, a), append(added, sign)
			return
		}
		if added[id] == -sign {
			added[id] = 0 // the edit undoes the pending one
			return
		}
		edit[id], added[id] = a, sign
	}
	for _, a := range h.ovAdds {
		fold(a, 1)
	}
	for _, d := range h.ovDels {
		fold(d, -1)
	}
	for _, a := range adds {
		fold(a, 1)
	}
	for _, d := range dels {
		fold(d, -1)
	}
	for id, sign := range added {
		switch sign {
		case 1:
			newAdds = append(newAdds, edit[id])
		case -1:
			newDels = append(newDels, edit[id])
		}
	}
	return newAdds, newDels
}

// spawnRebuild schedules a background re-preprocess for the spec,
// deduplicating concurrent requests per cache key. The goroutine builds
// against whatever version it observes (≥ the caller's) and swaps the
// fresh structure into the cache unless a newer epoch got there first,
// and into the registrations still holding that epoch (see
// followRebuild); readers keep probing the published overlay epoch
// until the swap.
func (e *Engine) spawnRebuild(s Spec, key string) {
	e.cmu.Lock()
	if e.bgRebuilding[key] {
		e.cmu.Unlock()
		return
	}
	e.bgRebuilding[key] = true
	e.cmu.Unlock()
	e.bg.Add(1)
	go func() {
		defer e.bg.Done()
		start := time.Now()
		e.mu.RLock()
		v := e.version
		// Build under the engine's lifetime context: Close abandons the
		// rebuild at the next wave boundary instead of waiting it out.
		h, err := e.build(e.life, s)
		e.mu.RUnlock()
		swapped := false
		e.cmu.Lock()
		delete(e.bgRebuilding, key)
		if err == nil {
			h.version = v
			if cur := e.cache.get(key); cur == nil || cur.version <= v {
				e.cache.add(key, h)
				e.bgRebuilds.Add(1)
				swapped = true
			}
		}
		e.cmu.Unlock()
		if swapped {
			e.followRebuild(key, h)
		}
		if e.log != nil {
			level, attrs := slog.LevelInfo, []slog.Attr{
				slog.String("query", s.Query),
				slog.Uint64("version", v),
				slog.Bool("swapped", swapped),
				slog.Duration("duration", time.Since(start)),
			}
			if err != nil {
				level = slog.LevelWarn
				attrs = append(attrs, slog.String("error", err.Error()))
			}
			e.log.LogAttrs(context.Background(), level, "engine: background rebuild", attrs...)
		}
	}()
}
